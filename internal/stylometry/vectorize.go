package stylometry

import (
	"encoding/json"
	"slices"
	"sort"
	"strings"

	"gptattr/internal/jsonscan"
)

// VectorizerConfig controls corpus vectorization.
type VectorizerConfig struct {
	// MinDocFreq drops term features (WordUnigram/LeafTF/ASTBigramTF)
	// appearing in fewer than this many documents; scalar features are
	// always kept. Default 2.
	MinDocFreq int
}

func (c VectorizerConfig) minDF() int {
	if c.MinDocFreq < 1 {
		return 2
	}
	return c.MinDocFreq
}

// Vectorizer aligns sparse feature vectors into dense rows with a fixed,
// deterministic column order learned from a training corpus.
type Vectorizer struct {
	names []string
	index map[string]int
	cfg   VectorizerConfig

	// scalarCols maps the interned scalar vocabulary straight to
	// columns so VectorIntoSparse never touches a feature-name string
	// for fixed features. Built eagerly by newVectorizer — never
	// lazily, the vectorizer is shared across serving workers.
	scalarCols []int32
}

// newVectorizer returns the vectorizer over names, in that column
// order, with its lookup tables built.
func newVectorizer(names []string, cfg VectorizerConfig) *Vectorizer {
	v := &Vectorizer{names: names, index: make(map[string]int, len(names)), cfg: cfg,
		scalarCols: make([]int32, len(scalarNames))}
	for id := range v.scalarCols {
		v.scalarCols[id] = -1
	}
	for i, name := range names {
		v.index[name] = i
		if id, ok := scalarIndex[name]; ok {
			v.scalarCols[id] = int32(i)
		}
	}
	return v
}

// termFeature reports whether the feature name is subject to
// MinDocFreq: an open-vocabulary term (termName), or a scalar of the
// per-AST-kind blocks, which are filtered like terms.
func termFeature(name string) bool {
	if termName(name) {
		return true
	}
	for _, p := range [...]string{"ASTBigramTF:", "ASTNodeTF:", "ASTAvgDepth:"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// NewVectorizer learns the feature dictionary from a document corpus:
// every feature some document holds, except a term feature (see
// termFeature) held by fewer than MinDocFreq documents. With fams
// non-empty only features of those families enter it, so a model
// trained on a family subset never indexes the others. Columns are
// sorted by name, so the dictionary does not depend on document order.
// This is the training boundary; rows come from VectorIntoSparse.
func NewVectorizer(docs []*Sparse, cfg VectorizerConfig, fams ...FeatureFamily) *Vectorizer {
	scalarDF := make([]int, len(scalarNames))
	termDF := make(map[string]int)
	for _, s := range docs {
		for _, id := range s.ids {
			scalarDF[id]++
		}
		for _, name := range s.names {
			termDF[name]++
		}
	}
	keep := func(name string, df int) bool {
		return (df >= cfg.minDF() || !termFeature(name)) &&
			(len(fams) == 0 || slices.Contains(fams, Family(name)))
	}
	var names []string
	for id, df := range scalarDF {
		if df > 0 && keep(scalarNames[id], df) {
			names = append(names, scalarNames[id])
		}
	}
	for name, df := range termDF {
		if keep(name, df) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return newVectorizer(names, cfg)
}

// NumFeatures returns the dictionary size.
func (v *Vectorizer) NumFeatures() int { return len(v.names) }

// FeatureNames returns the column names in order (shared slice; do not
// mutate).
func (v *Vectorizer) FeatureNames() []string { return v.names }

// vectorizerDTO is the JSON wire form of a Vectorizer. Format 1 still
// carries the key of a since-removed TF-IDF option, always false.
type vectorizerDTO struct {
	Names []string `json:"names"`
	Cfg   struct {
		MinDocFreq int
		UseTFIDF   bool
	} `json:"cfg"`
}

// MarshalJSON implements json.Marshaler.
func (v *Vectorizer) MarshalJSON() ([]byte, error) {
	dto := vectorizerDTO{Names: v.names}
	dto.Cfg.MinDocFreq = v.cfg.MinDocFreq
	return json.Marshal(dto)
}

// ScanVectorizer reads the vectorizer MarshalJSON writes from c:
// {"names":[…],"cfg":{"MinDocFreq":…,"UseTFIDF":false}} with no
// whitespace. On any other input it fails c and returns nil.
func ScanVectorizer(c *jsonscan.Cursor) *Vectorizer {
	c.Lit(`{"names":`)
	names := c.Strs()
	c.Lit(`,"cfg":{"MinDocFreq":`)
	cfg := VectorizerConfig{MinDocFreq: c.Int()}
	c.Lit(`,"UseTFIDF":false}}`)
	if !c.OK() {
		return nil
	}
	return newVectorizer(names, cfg)
}
