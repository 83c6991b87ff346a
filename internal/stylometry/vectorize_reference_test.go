package stylometry

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// refNewVectorizer is the map-based vocabulary learner that
// NewVectorizer replaced, frozen as its reference: document
// frequencies counted by name over feature maps, term features below
// MinDocFreq dropped, names sorted.
func refNewVectorizer(docs []Features, cfg VectorizerConfig) *Vectorizer {
	df := make(map[string]int)
	for _, d := range docs {
		for name := range d {
			df[name]++
		}
	}
	var names []string
	for name, n := range df {
		if termFeature(name) && n < cfg.minDF() {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return newVectorizer(names, cfg)
}

// refVector is the map-based row builder that VectorIntoSparse
// replaced: one map probe per document feature.
func refVector(v *Vectorizer, doc Features) []float64 {
	row := make([]float64, len(v.names))
	for name, val := range doc {
		if i, ok := v.index[name]; ok {
			row[i] = val
		}
	}
	return row
}

// FilterFamilies returns the features of f in the given families: the
// family-subset corpus the map-based training path built, and the
// map a degraded extraction must equal.
func FilterFamilies(f Features, fams ...FeatureFamily) Features {
	out := make(Features, len(f))
	for name, v := range f {
		if slices.Contains(fams, Family(name)) {
			out[name] = v
		}
	}
	return out
}

// TestVectorizerMatchesMapReference pins the Sparse training boundary
// to the map-based one it replaced: over the golden corpus, for every
// degrade level's family subset and each single family, at MinDocFreq
// 1 and 2, NewVectorizer learns the reference's column names and
// VectorIntoSparse builds its rows bit for bit.
func TestVectorizerMatchesMapReference(t *testing.T) {
	cases := sparseCases(t)
	docs := make([]*Sparse, len(cases))
	for i, c := range cases {
		docs[i] = c.sp
	}
	subsets := [][]FeatureFamily{nil}
	for lvl := DegradeNone; lvl <= MaxDegrade; lvl++ {
		subsets = append(subsets, lvl.Families())
	}
	for _, fam := range AllFamilies {
		subsets = append(subsets, []FeatureFamily{fam})
	}
	for _, fams := range subsets {
		maps := make([]Features, len(cases))
		for i, c := range cases {
			maps[i] = c.f
			if fams != nil {
				maps[i] = FilterFamilies(c.f, fams...)
			}
		}
		for _, cfg := range []VectorizerConfig{{MinDocFreq: 1}, {MinDocFreq: 2}} {
			name := fmt.Sprintf("families %v, MinDocFreq %d", fams, cfg.MinDocFreq)
			want := refNewVectorizer(maps, cfg)
			got := NewVectorizer(docs, cfg, fams...)
			if len(got.FeatureNames()) == 0 || !reflect.DeepEqual(got.FeatureNames(), want.FeatureNames()) {
				t.Fatalf("%s: %d columns, reference %d, or names differ",
					name, got.NumFeatures(), want.NumFeatures())
			}
			row := make([]float64, got.NumFeatures())
			for i, c := range cases {
				got.VectorIntoSparse(c.sp, row)
				for col, w := range refVector(want, maps[i]) {
					if math.Float64bits(row[col]) != math.Float64bits(w) {
						t.Fatalf("%s, %s: column %s = %v, reference %v",
							name, c.name, got.FeatureNames()[col], row[col], w)
					}
				}
			}
		}
	}
}
