// Package attrib implements the paper's contribution: ChatGPT code
// authorship attribution for transformed code. It trains the
// non-ChatGPT oracle model (Caliskan-Islam random forest over the
// stylometry feature set), counts and histograms the styles the oracle
// assigns to ChatGPT-transformed code (Tables IV-VII), builds the
// 205-author models under the naive and feature-based grouping
// approaches (Tables VIII-IX), and runs the ChatGPT-vs-human binary
// classification (Table X).
package attrib

import (
	"errors"
	"fmt"
	"runtime"

	"gptattr/internal/corpus"
	"gptattr/internal/ml"
	"gptattr/internal/stylometry"
)

// Config carries the shared learning parameters.
type Config struct {
	// Trees is the forest size (default 100).
	Trees int
	// TopFeatures bounds the information-gain feature selection
	// (default 700).
	TopFeatures int
	// MinDocFreq for the vectorizer (default 2).
	MinDocFreq int
	// Seed drives all randomized steps.
	Seed int64
	// Workers bounds parallel feature extraction, cross-validation,
	// and tree building (default GOMAXPROCS).
	Workers int
	// Cache, when non-nil, memoizes feature extraction by source
	// content (see internal/featcache).
	Cache stylometry.FeatureCache
	// Families, when non-empty, restricts training to these feature
	// families (ablation studies; see stylometry.FeatureFamily). The
	// prediction path needs no matching change: vectorizers built from
	// filtered features simply never index the dropped families.
	Families []stylometry.FeatureFamily
}

func (c Config) trees() int {
	if c.Trees <= 0 {
		return 100
	}
	return c.Trees
}

func (c Config) topFeatures() int {
	if c.TopFeatures <= 0 {
		return 700
	}
	return c.TopFeatures
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// ExtractAll computes stylometry vectors for every sample of c, in
// parallel on cfg's worker bound, through cfg.Cache when set,
// preserving order. A failing sample is reported with its
// author/challenge provenance.
func ExtractAll(c *corpus.Corpus, cfg Config) ([]*stylometry.Sparse, error) {
	sources := make([]string, len(c.Samples))
	for i, s := range c.Samples {
		sources[i] = s.Source
	}
	out, _, err := stylometry.ExtractAll(sources, stylometry.DegradeNone,
		stylometry.ExtractConfig{Workers: cfg.workers(), Cache: cfg.Cache})
	if err != nil {
		var ee *stylometry.ExtractError
		if errors.As(err, &ee) {
			s := c.Samples[ee.Index]
			return nil, fmt.Errorf("attrib: sample %d (%s/%s): %w",
				ee.Index, s.Author, s.Challenge, ee.Err)
		}
		return nil, err
	}
	return out, nil
}

// challengeIndex maps "C1".."C8" to a fold group id.
func challengeIndex(id string) int {
	if len(id) >= 2 && id[0] == 'C' {
		n := 0
		for _, r := range id[1:] {
			if r < '0' || r > '9' {
				return 0
			}
			n = n*10 + int(r-'0')
		}
		return n
	}
	return 0
}

// buildDataset is the one training boundary: it learns a vectorizer
// over t's vectors, restricted to cfg.Families, builds each sample's
// row, label and challenge group, and keeps the cfg.TopFeatures most
// informative columns, which it returns as indices into the
// vectorizer's.
func buildDataset(t task, cfg Config) (*ml.Dataset, *stylometry.Vectorizer, []int) {
	vec := stylometry.NewVectorizer(t.feats, stylometry.VectorizerConfig{MinDocFreq: cfg.MinDocFreq}, cfg.Families...)
	d := &ml.Dataset{NumClasses: t.numClasses, FeatureNames: vec.FeatureNames()}
	d.X = make([][]float64, len(t.feats))
	d.Y = make([]int, len(t.feats))
	d.Groups = make([]int, len(t.feats))
	for i, sp := range t.feats {
		d.X[i] = make([]float64, vec.NumFeatures())
		vec.VectorIntoSparse(sp, d.X[i])
		d.Y[i] = t.labelOf(t.c.Samples[i])
		d.Groups[i] = challengeIndex(t.c.Samples[i].Challenge)
	}
	reduced, cols := ml.ReduceByInformationGain(d, cfg.topFeatures(), 10)
	reduced.Groups = d.Groups
	return reduced, vec, cols
}

// OracleDataset is the training set TrainOracle fits on: one row per
// sample of human with feats its vectors (nil extracts them here), one
// class per author in sorted order, the challenges as fold groups, and
// the columns cut to cfg.TopFeatures by information gain.
func OracleDataset(human *corpus.Corpus, feats []*stylometry.Sparse, cfg Config) (*ml.Dataset, error) {
	t, _, err := oracleTask(human, feats, cfg)
	if err != nil {
		return nil, err
	}
	d, _, _ := buildDataset(t, cfg)
	return d, nil
}
