package stylometry

import (
	"sync"

	"gptattr/internal/cppast"
	"gptattr/internal/cpptok"
	"gptattr/internal/semstats"
)

// FeatureVec is the indexed accumulator behind extraction: a dense
// scalar slab addressed by ScalarID plus per-namespace term
// accumulators addressed by interned term IDs. The hot path writes
// only through integer indices; Features() materializes the sparse
// map view at package boundaries. A FeatureVec is owned by a Scratch
// and recycled across extractions.
type FeatureVec struct {
	scalars []float64
	present []bool

	words  termAccum // WordUnigram:<ident>
	leafs  termAccum // LeafTF:<ident or literal>
	shapes termAccum // SemShape:<gram>

	// overflow absorbs terms outside the interned vocabulary (a term
	// namespace past its intern cap). nil in steady state.
	overflow Features
}

// termAccum accumulates one term namespace: vals is indexed by the
// owning termSpace's IDs, touched lists the IDs written this
// extraction so Reset is O(terms in doc), not O(vocabulary).
type termAccum struct {
	space   *termSpace
	vals    []float64
	touched []int32
}

// add accumulates v for the term and reports whether this is the
// term's first touch in the current document.
func (ta *termAccum) add(fv *FeatureVec, text string, v float64) (first bool) {
	id := ta.space.id(text)
	if id < 0 {
		name := ta.space.prefix + text
		_, seen := fv.overflowMap()[name]
		fv.overflow[name] += v
		return !seen
	}
	if int(id) >= len(ta.vals) {
		grown := make([]float64, int(id)+256)
		copy(grown, ta.vals)
		ta.vals = grown
	}
	first = ta.vals[id] == 0
	if first {
		ta.touched = append(ta.touched, id)
	}
	ta.vals[id] += v
	return first
}

func (ta *termAccum) reset() {
	for _, id := range ta.touched {
		ta.vals[id] = 0
	}
	ta.touched = ta.touched[:0]
}

func (fv *FeatureVec) overflowMap() Features {
	if fv.overflow == nil {
		fv.overflow = make(Features) // repolint:allow-featmap cold-path absorber, nil in steady state
	}
	return fv.overflow
}

// Set writes a scalar feature (last write wins, like a map store).
func (fv *FeatureVec) Set(id ScalarID, v float64) {
	fv.scalars[id] = v
	fv.present[id] = true
}

// Add accumulates into a scalar feature, creating it at zero first —
// the f[name] += v idiom.
func (fv *FeatureVec) Add(id ScalarID, v float64) {
	fv.scalars[id] += v
	fv.present[id] = true
}

// AddWord, AddLeaf, and AddShape accumulate open-vocabulary terms;
// each reports whether the term is new to this document.
func (fv *FeatureVec) AddWord(text string, v float64) bool { return fv.words.add(fv, text, v) }

// AddLeaf accumulates a LeafTF term.
func (fv *FeatureVec) AddLeaf(text string, v float64) bool { return fv.leafs.add(fv, text, v) }

// AddShape accumulates a SemShape term.
func (fv *FeatureVec) AddShape(text string, v float64) bool { return fv.shapes.add(fv, text, v) }

// Reset clears the accumulator for the next document. The slab, term
// buffers, and intern tables are retained.
func (fv *FeatureVec) Reset() {
	if fv.scalars == nil {
		fv.scalars = make([]float64, len(scalarNames))
		fv.present = make([]bool, len(scalarNames))
	}
	for i := range fv.present {
		if fv.present[i] {
			fv.present[i] = false
			fv.scalars[i] = 0
		}
	}
	fv.words.reset()
	fv.leafs.reset()
	fv.shapes.reset()
	fv.overflow = nil
}

// NumSet returns how many features are present (scalars + terms).
func (fv *FeatureVec) NumSet() int {
	n := len(fv.words.touched) + len(fv.leafs.touched) + len(fv.shapes.touched) + len(fv.overflow)
	for _, p := range fv.present {
		if p {
			n++
		}
	}
	return n
}

// Features materializes the sparse map view. This is the package-
// boundary form (training corpora, JSON); serving paths snapshot the
// vec with Sparse and vectorize that via Vectorizer.VectorIntoSparse.
func (fv *FeatureVec) Features() Features {
	out := make(Features, fv.NumSet()) // repolint:allow-featmap the boundary materializer itself
	fv.mergeInto(out)
	return out
}

// mergeInto writes every present feature into f by name.
func (fv *FeatureVec) mergeInto(f Features) {
	for i, p := range fv.present {
		if p {
			f[scalarNames[i]] = fv.scalars[i]
		}
	}
	fv.words.appendTo(f)
	fv.leafs.appendTo(f)
	fv.shapes.appendTo(f)
	for name, v := range fv.overflow {
		f[name] = v
	}
}

func (ta *termAccum) appendTo(out Features) {
	for _, id := range ta.touched {
		out[ta.space.names[id]] = ta.vals[id]
	}
}

// Scratch bundles every reusable buffer of the extraction hot path:
// the token buffer, the AST arena, the feature accumulator with its
// persistent term-intern tables, and the semantic-pass workspace.
// One Scratch serves one extraction at a time; pool them with
// GetScratch/PutScratch. Steady-state extraction through a pooled
// Scratch performs no allocation (pinned by TestExtractVecAllocs).
type Scratch struct {
	toks  []cpptok.Token
	surf  cpptok.Surface
	arena *cppast.Arena
	vec   FeatureVec
	sem   *semstats.Scratch
}

// NewScratch builds an unpooled Scratch (tests, long-lived workers).
func NewScratch() *Scratch {
	sc := &Scratch{arena: cppast.NewArena(), sem: semstats.NewScratch()}
	sc.vec.words.space = &termSpace{prefix: "WordUnigram:"}
	sc.vec.leafs.space = &termSpace{prefix: "LeafTF:"}
	sc.vec.shapes.space = &termSpace{prefix: "SemShape:"}
	sc.vec.Reset()
	return sc
}

var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// GetScratch fetches a pooled extraction scratch.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns a scratch to the pool. The caller must not retain
// the scratch, its FeatureVec, or any tree parsed through it.
func PutScratch(sc *Scratch) {
	// Drop token texts and the semantic workspace's AST references so
	// the pool does not pin the last request's source string between
	// uses.
	clear(sc.toks[:cap(sc.toks)])
	sc.sem.Release()
	scratchPool.Put(sc)
}
