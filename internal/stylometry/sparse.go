package stylometry

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"unsafe"
)

// Sparse is the compact, immutable form of one document's features:
// the present scalars as ScalarIDs with their values, then the terms
// as feature names with their values. It is what the serving path
// carries from extraction through the feature cache to the model —
// about a third of the memory of the equivalent Features map, and
// scored without a map probe per scalar (Vectorizer.VectorIntoSparse).
// Term names taken from a FeatureVec share the intern tables' strings.
// A Sparse is never mutated after construction, so any number of
// goroutines may read one concurrently.
type Sparse struct {
	ids   []uint16  // present scalar IDs, ascending
	vals  []float64 // vals[:len(ids)] scalars, vals[len(ids):] terms
	names []string  // term feature names, parallel to vals[len(ids):]
}

// Vector is any feature form that converts to a Sparse: a Features map
// (copying), a FeatureVec (a snapshot) or a Sparse itself (identity).
type Vector interface {
	Sparse() *Sparse
}

// scalarIndex maps a scalar feature name back to its ScalarID, for
// Features.Sparse. Built in init, once every regScalar has run.
var scalarIndex map[string]ScalarID

func init() {
	if len(scalarNames) > math.MaxUint16+1 {
		// repolint:allow-panic a vocabulary that outgrows Sparse's uint16 IDs is a build defect, caught at startup
		panic(fmt.Sprintf("stylometry: %d scalar features overflow Sparse's uint16 IDs", len(scalarNames)))
	}
	scalarIndex = make(map[string]ScalarID, len(scalarNames))
	for id, name := range scalarNames {
		scalarIndex[name] = ScalarID(id)
	}
}

// Sparse snapshots the accumulator, overflow terms included. The
// result does not alias the scratch: it stays valid after the next
// extraction or putScratch.
func (fv *FeatureVec) Sparse() *Sparse {
	nScalars := 0
	for _, p := range fv.present {
		if p {
			nScalars++
		}
	}
	nTerms := len(fv.words.touched) + len(fv.leafs.touched) + len(fv.shapes.touched) + len(fv.overflow)
	s := &Sparse{
		ids:  make([]uint16, 0, nScalars),
		vals: make([]float64, 0, nScalars+nTerms),
	}
	if nTerms > 0 {
		s.names = make([]string, 0, nTerms)
	}
	for id, p := range fv.present {
		if p {
			s.ids = append(s.ids, uint16(id))
			s.vals = append(s.vals, fv.scalars[id])
		}
	}
	for _, ta := range [...]*termAccum{&fv.words, &fv.leafs, &fv.shapes} {
		for _, id := range ta.touched {
			s.names = append(s.names, ta.space.names[id])
			s.vals = append(s.vals, ta.vals[id])
		}
	}
	if len(fv.overflow) > 0 {
		start := len(s.names)
		for name := range fv.overflow {
			s.names = append(s.names, name)
		}
		sort.Strings(s.names[start:])
		for _, name := range s.names[start:] {
			s.vals = append(s.vals, fv.overflow[name])
		}
	}
	return s
}

// Sparse converts the map to the compact form, copying it: later
// writes to f do not reach the result. Scalar names become ScalarIDs;
// every other name, known vocabulary or not, is kept as a term.
func (f Features) Sparse() *Sparse {
	nScalars := 0
	for name := range f {
		if _, ok := scalarIndex[name]; ok {
			nScalars++
		}
	}
	// Exact capacities: a cached Sparse holds its slices for its life.
	ids := make([]uint16, 0, nScalars)
	names := make([]string, 0, len(f)-nScalars)
	for name := range f {
		if id, ok := scalarIndex[name]; ok {
			ids = append(ids, uint16(id))
		} else {
			names = append(names, name)
		}
	}
	slices.Sort(ids)
	sort.Strings(names)
	vals := make([]float64, 0, len(f))
	for _, id := range ids {
		vals = append(vals, f[scalarNames[id]])
	}
	for _, name := range names {
		vals = append(vals, f[name])
	}
	return &Sparse{ids: ids, vals: vals, names: names}
}

// Sparse returns s itself: a Sparse is immutable, so sharing it is
// safe.
func (s *Sparse) Sparse() *Sparse { return s }

// Features materializes the map view, for training corpora, the disk
// cache and JSON; the serving path scores s directly. With fams
// non-empty only features of those families are kept, so a
// family-subset training corpus is built in this one copy.
func (s *Sparse) Features(fams ...FeatureFamily) Features {
	keep := func(name string) bool { return len(fams) == 0 || slices.Contains(fams, Family(name)) }
	out := make(Features, len(s.vals)) // repolint:allow-featmap the boundary materializer for the compact form
	for i, id := range s.ids {
		if name := scalarNames[id]; keep(name) {
			out[name] = s.vals[i]
		}
	}
	terms := s.vals[len(s.ids):]
	for i, name := range s.names {
		if keep(name) {
			out[name] = terms[i]
		}
	}
	return out
}

// Bytes reports the memory held by s's own slices: IDs, values and
// the name headers. The name strings are not counted — most are shared
// with the intern tables.
func (s *Sparse) Bytes() int {
	return cap(s.ids)*int(unsafe.Sizeof(uint16(0))) +
		cap(s.vals)*int(unsafe.Sizeof(float64(0))) +
		cap(s.names)*int(unsafe.Sizeof(""))
}

// VectorIntoSparse fills a caller-provided row (len must be
// NumFeatures) from a Sparse, allocating nothing: scalars go through
// the precomputed ScalarID -> column table, terms through one map
// probe on their names. It produces exactly Vector(s.Features())
// without materializing the map. Serving paths reuse one row per
// worker across requests.
func (v *Vectorizer) VectorIntoSparse(s *Sparse, row []float64) {
	if len(row) != len(v.names) {
		// repolint:allow-panic caller-contract violation (wrongly sized scratch), not a data fault the supervisors should absorb
		panic(fmt.Sprintf("stylometry: VectorIntoSparse row len %d, want %d", len(row), len(v.names)))
	}
	clear(row)
	for i, id := range s.ids {
		if col := v.scalarCols[id]; col >= 0 {
			row[col] = s.vals[i]
		}
	}
	terms := s.vals[len(s.ids):]
	for i, name := range s.names {
		if col, ok := v.index[name]; ok {
			row[col] = terms[i]
		}
	}
}
