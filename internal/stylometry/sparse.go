package stylometry

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"
	"unsafe"

	"gptattr/internal/jsonscan"
)

// Sparse is the compact, immutable form of one document's features:
// the present scalars as ScalarIDs with their values, then the terms
// as feature names with their values. It is the one feature form below
// the public API: serving carries it from extraction through the
// feature cache, memory and disk, to the model, and training learns
// its vocabulary from it. It holds about a third of the memory of the
// equivalent Features map and is scored without a map probe per
// scalar (Vectorizer.VectorIntoSparse).
// Term names taken from a FeatureVec share the intern tables' strings.
// A Sparse is never mutated after construction, so any number of
// goroutines may read one concurrently.
//
// Terms are in extraction order: each namespace's terms by first
// touch. Once a scratch's term namespace has interned maxTermIDs
// terms, new terms overflow and sort after the interned ones, so a
// source extracted after that point can order its terms differently
// from the same source extracted before it. The vectors are equal as
// feature sets and vectorize to the same rows.
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

// Features materializes the map view, for tests that compare a vector
// with a map; models and the training boundary read s directly.
func (s *Sparse) Features() Features {
	out := make(Features, len(s.vals)) // repolint:allow-featmap the boundary materializer for the compact form
	for i, id := range s.ids {
		out[scalarNames[id]] = s.vals[i]
	}
	terms := s.vals[len(s.ids):]
	for i, name := range s.names {
		out[name] = terms[i]
	}
	return out
}

// sparseDTO is the JSON form of a Sparse: the featcache disk entry.
type sparseDTO struct {
	IDs   []uint16  `json:"ids"`
	Names []string  `json:"names"`
	Vals  []float64 `json:"vals"`
}

// MarshalJSON implements json.Marshaler: {"ids":[…],"names":[…],
// "vals":[…]}, the parts in s's own order. A term name that is not
// valid UTF-8 (a string literal's raw bytes, say) is an error:
// encoding/json would write it with U+FFFD in place of the bad bytes,
// and the vector read back would hold a different feature.
func (s *Sparse) MarshalJSON() ([]byte, error) {
	for _, name := range s.names {
		if !utf8.ValidString(name) {
			return nil, fmt.Errorf("stylometry: sparse vector: term name %q is not valid UTF-8", name)
		}
	}
	names := s.names
	if names == nil {
		names = []string{} // a vector without terms
	}
	return json.Marshal(sparseDTO{IDs: s.ids, Names: names, Vals: s.vals})
}

// ScanSparse reads the layout MarshalJSON writes — its keys in its
// order, no whitespace, nothing after the object — and returns the
// Sparse it encodes. It checks what every
// Sparse holds: ascending IDs of registered scalars, term names in an
// extraction term namespace (termPrefixes), and
// one value per ID and name. Values are finite, as JSON spells no NaN
// or infinity and a number out of float64's range fails the read. The
// slices are sized exactly, and a vector without terms has nil names,
// as FeatureVec.Sparse leaves them.
func ScanSparse(data []byte) (*Sparse, error) {
	c := jsonscan.NewCursor(data)
	var ids []uint16
	c.Lit(`{"ids":[`)
	for i := 0; c.Next(i); i++ {
		id := c.Int()
		if c.OK() && (id < 0 || id >= len(scalarNames) || i > 0 && id <= int(ids[i-1])) {
			return nil, fmt.Errorf("stylometry: sparse vector: scalar ID %d out of range or order", id)
		}
		ids = append(ids, uint16(id))
	}
	var names []string
	c.Lit(`,"names":[`)
	for i := 0; c.Next(i); i++ {
		name := c.Str()
		if c.OK() && !termName(name) {
			return nil, fmt.Errorf("stylometry: sparse vector: %q is in no term namespace", name)
		}
		names = append(names, name)
	}
	s := &Sparse{ids: append(make([]uint16, 0, len(ids)), ids...),
		vals: make([]float64, 0, len(ids)+len(names))}
	if len(names) > 0 {
		s.names = append(make([]string, 0, len(names)), names...)
	}
	c.Lit(`,"vals":[`)
	for i := 0; c.Next(i); i++ {
		if i == cap(s.vals) {
			return nil, fmt.Errorf("stylometry: sparse vector: more than %d values", cap(s.vals))
		}
		s.vals = append(s.vals, c.Float())
	}
	c.Lit("}")
	c.End()
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("stylometry: sparse vector: %w", err)
	}
	if len(s.vals) != cap(s.vals) {
		return nil, fmt.Errorf("stylometry: sparse vector: %d values for %d features", len(s.vals), cap(s.vals))
	}
	return s, nil
}

// termPrefixes are the open-vocabulary term namespaces extraction
// writes, one termSpace each (see newScratch): word unigrams, AST leaf
// terms and semantic shape grams.
var termPrefixes = [...]string{"WordUnigram:", "LeafTF:", "SemShape:"}

// termName reports whether name is in one of termPrefixes' namespaces.
func termName(name string) bool {
	for _, p := range termPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
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
// probe on their names. Column i holds s's value for FeatureNames()[i],
// or zero when s lacks that feature. Serving paths reuse one row per
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
