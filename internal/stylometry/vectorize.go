package stylometry

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"gptattr/internal/jsonscan"
)

// jsonMarshal/jsonUnmarshal alias the stdlib so method receivers avoid
// accidental recursion through MarshalJSON.
func jsonMarshal(v any) ([]byte, error)   { return json.Marshal(v) }
func jsonUnmarshal(d []byte, v any) error { return json.Unmarshal(d, v) }

// VectorizerConfig controls corpus vectorization.
type VectorizerConfig struct {
	// MinDocFreq drops term features (WordUnigram/LeafTF/ASTBigramTF)
	// appearing in fewer than this many documents; scalar features are
	// always kept. Default 2.
	MinDocFreq int
	// UseTFIDF reweights term features by log(N/df) (the paper's TFIDF
	// feature variants).
	UseTFIDF bool
}

func (c VectorizerConfig) minDF() int {
	if c.MinDocFreq < 1 {
		return 2
	}
	return c.MinDocFreq
}

// Vectorizer aligns sparse feature maps into dense rows with a fixed,
// deterministic column order learned from a training corpus.
type Vectorizer struct {
	names []string
	index map[string]int
	idf   map[string]float64
	cfg   VectorizerConfig

	// scalarCols/scalarIDF map the interned scalar vocabulary straight
	// to columns (and TF-IDF weights) so VectorIntoSparse never touches
	// a feature-name string for fixed features. Built eagerly by
	// NewVectorizer and init (both decoders) — never lazily, the
	// vectorizer is shared across serving workers.
	scalarCols []int32
	scalarIDF  []float64
}

// buildScalarTables precomputes ScalarID -> (column, idf weight).
func (v *Vectorizer) buildScalarTables() {
	v.scalarCols = make([]int32, len(scalarNames))
	v.scalarIDF = make([]float64, len(scalarNames))
	for id, name := range scalarNames {
		col, ok := v.index[name]
		if !ok {
			v.scalarCols[id] = -1
			continue
		}
		v.scalarCols[id] = int32(col)
		w := 1.0
		if v.cfg.UseTFIDF {
			if iw, ok := v.idf[name]; ok {
				w = iw
			}
		}
		v.scalarIDF[id] = w
	}
}

// termFeature reports whether the feature name is an open-vocabulary
// term (subject to MinDocFreq and IDF) as opposed to a fixed scalar.
func termFeature(name string) bool {
	for _, p := range []string{"WordUnigram:", "LeafTF:", "ASTBigramTF:", "ASTNodeTF:", "ASTAvgDepth:", "SemShape:"} {
		if len(name) >= len(p) && name[:len(p)] == p {
			return true
		}
	}
	return false
}

// NewVectorizer learns the feature dictionary from a document corpus.
func NewVectorizer(docs []Features, cfg VectorizerConfig) *Vectorizer {
	df := make(map[string]int)
	for _, d := range docs {
		for name := range d {
			df[name]++
		}
	}
	v := &Vectorizer{index: make(map[string]int), idf: make(map[string]float64), cfg: cfg} // repolint:allow-featmap training-time IDF table
	minDF := cfg.minDF()
	for name, n := range df {
		if termFeature(name) && n < minDF {
			continue
		}
		v.names = append(v.names, name)
	}
	sort.Strings(v.names)
	for i, name := range v.names {
		v.index[name] = i
	}
	if cfg.UseTFIDF {
		total := float64(len(docs))
		for _, name := range v.names {
			if termFeature(name) {
				v.idf[name] = math.Log(total/float64(df[name])) + 1
			}
		}
	}
	v.buildScalarTables()
	return v
}

// NumFeatures returns the dictionary size.
func (v *Vectorizer) NumFeatures() int { return len(v.names) }

// FeatureNames returns the column names in order (shared slice; do not
// mutate).
func (v *Vectorizer) FeatureNames() []string { return v.names }

// Vector produces the dense row for one document. Unknown features are
// ignored (the document may be out-of-vocabulary).
func (v *Vectorizer) Vector(doc Features) []float64 {
	row := make([]float64, len(v.names))
	v.VectorInto(doc, row)
	return row
}

// VectorInto fills a caller-provided row (len must be NumFeatures)
// with the document's dense vector, allocating nothing. Serving paths
// reuse one row per worker across requests.
func (v *Vectorizer) VectorInto(doc Features, row []float64) {
	if len(row) != len(v.names) {
		// repolint:allow-panic caller-contract violation (wrongly sized scratch), not a data fault the supervisors should absorb
		panic(fmt.Sprintf("stylometry: VectorInto row len %d, want %d", len(row), len(v.names)))
	}
	clear(row)
	for name, val := range doc {
		i, ok := v.index[name]
		if !ok {
			continue
		}
		if v.cfg.UseTFIDF {
			if w, ok := v.idf[name]; ok {
				val *= w
			}
		}
		row[i] = val
	}
}

// vectorizerDTO is the JSON wire form of a Vectorizer.
type vectorizerDTO struct {
	Names []string           `json:"names"`
	IDF   map[string]float64 `json:"idf,omitempty"`
	Cfg   VectorizerConfig   `json:"cfg"`
}

// MarshalJSON implements json.Marshaler.
func (v *Vectorizer) MarshalJSON() ([]byte, error) {
	return jsonMarshal(vectorizerDTO{Names: v.names, IDF: v.idf, Cfg: v.cfg})
}

// UnmarshalJSON implements json.Unmarshaler.
func (v *Vectorizer) UnmarshalJSON(data []byte) error {
	var dto vectorizerDTO
	if err := jsonUnmarshal(data, &dto); err != nil {
		return err
	}
	v.init(dto.Names, dto.IDF, dto.Cfg)
	return nil
}

// ScanVectorizer reads the vectorizer MarshalJSON writes without TF-IDF
// weights from c: {"names":[…],"cfg":{"MinDocFreq":…,"UseTFIDF":…}}
// with no whitespace. On any other input, an "idf" map included, it
// fails c and returns nil, and the caller decodes the input with
// encoding/json instead.
func ScanVectorizer(c *jsonscan.Cursor) *Vectorizer {
	c.Lit(`{"names":`)
	names := c.Strs()
	var cfg VectorizerConfig
	c.Lit(`,"cfg":{"MinDocFreq":`)
	cfg.MinDocFreq = c.Int()
	c.Lit(`,"UseTFIDF":`)
	cfg.UseTFIDF = c.Bool()
	c.Lit("}}")
	if !c.OK() {
		return nil
	}
	v := &Vectorizer{}
	v.init(names, nil, cfg)
	return v
}

// init sets a decoded vectorizer's fields and builds its lookup tables.
func (v *Vectorizer) init(names []string, idf map[string]float64, cfg VectorizerConfig) {
	v.names = names
	v.idf = idf
	if v.idf == nil {
		v.idf = map[string]float64{} // repolint:allow-featmap persisted-model decode
	}
	v.cfg = cfg
	v.index = make(map[string]int, len(v.names))
	for i, n := range v.names {
		v.index[n] = i
	}
	v.buildScalarTables()
}
