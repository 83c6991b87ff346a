package attrib

import (
	"fmt"
	"slices"

	"gptattr/internal/corpus"
	"gptattr/internal/ml"
	"gptattr/internal/stylometry"
)

// Oracle is the pre-trained non-ChatGPT authorship model: a random
// forest over the stylometric feature space of one year's 204-author
// corpus. The paper uses it "as an oracle to identify and narrow down
// the stylistic patterns present in [transformed] code". It is the
// shared scoring core plus the author label of each class.
type Oracle struct {
	model
	labels []string
}

// TrainOracle fits the oracle on a human (non-ChatGPT) corpus.
func TrainOracle(human *corpus.Corpus, cfg Config) (*Oracle, error) {
	t, labels, err := oracleTask(human, cfg)
	if err != nil {
		return nil, err
	}
	o := &Oracle{labels: labels}
	if err := o.fit(t, cfg, nil); err != nil {
		return nil, fmt.Errorf("attrib: oracle training: %w", err)
	}
	return o, nil
}

// Labels returns the author labels in class order.
func (o *Oracle) Labels() []string {
	out := make([]string, len(o.labels))
	copy(out, o.labels)
	return out
}

// Predict attributes one source to an author label.
func (o *Oracle) Predict(src string) (string, error) {
	f, err := stylometry.Extract(src)
	if err != nil {
		return "", err
	}
	return o.PredictFeatures(f), nil
}

// PredictFeatures attributes pre-extracted features: the label with
// the most tree votes. The vectorization and voting run on pooled
// scratch.
func (o *Oracle) PredictFeatures(f stylometry.Features) string {
	s := o.reduce(f, nil)
	o.forest.VotesInto(s.row, s.votes)
	best := 0
	for c, v := range s.votes {
		if v > s.votes[best] {
			best = c
		}
	}
	o.scratch.Put(s)
	return o.labels[best]
}

// Proba returns the forest's vote share per author label for one
// source, alongside the predicted label.
func (o *Oracle) Proba(src string) (map[string]float64, string, error) {
	f, err := stylometry.Extract(src)
	if err != nil {
		return nil, "", err
	}
	out, best := o.ProbaFeatures(f)
	return out, best, nil
}

// ProbaFeatures is Proba over pre-extracted features. Only the
// returned label map allocates; the vectorization and voting run on
// pooled scratch.
func (o *Oracle) ProbaFeatures(f stylometry.Features) (map[string]float64, string) {
	return o.proba(o.reduce(f, nil))
}

// ProbaSparse is ProbaFeatures over the compact form. This is the
// serving path: extraction and the feature cache hand the model a
// Sparse, and no feature map is built. sp is only read.
func (o *Oracle) ProbaSparse(sp *stylometry.Sparse) (map[string]float64, string) {
	return o.proba(o.reduce(nil, sp))
}

// proba reads the per-label vote shares of one reduced source and
// returns s to the pool.
func (o *Oracle) proba(s *vecScratch) (map[string]float64, string) {
	o.forest.PredictProbaInto(s.row, s.proba)
	out := make(map[string]float64, len(o.labels))
	best := 0
	for i, p := range s.proba {
		out[o.labels[i]] = p
		if p > s.proba[best] {
			best = i
		}
	}
	o.scratch.Put(s)
	return out, o.labels[best]
}

// PredictCorpus attributes every sample, in order, reusing
// pre-extracted features when provided (pass nil to extract here).
func (o *Oracle) PredictCorpus(c *corpus.Corpus, feats []stylometry.Features) ([]string, error) {
	var err error
	if feats == nil {
		feats, err = ExtractAll(c, Config{})
		if err != nil {
			return nil, err
		}
	}
	if len(feats) != len(c.Samples) {
		return nil, fmt.Errorf("attrib: %d features for %d samples", len(feats), len(c.Samples))
	}
	rows := make([][]float64, len(feats))
	for i, f := range feats {
		s := o.reduce(f, nil)
		rows[i] = slices.Clone(s.row)
		o.scratch.Put(s)
	}
	preds := o.forest.PredictAll(rows)
	out := make([]string, len(preds))
	for i, p := range preds {
		out[i] = o.labels[p]
	}
	return out, nil
}

// SelfAccuracy evaluates the oracle with grouped (per-challenge)
// cross-validation over its own training corpus — a sanity metric
// mirroring Caliskan-Islam's headline result.
func SelfAccuracy(human *corpus.Corpus, cfg Config) (float64, error) {
	t, _, err := oracleTask(human, cfg)
	if err != nil {
		return 0, err
	}
	d, _, _ := buildDataset(t, cfg)
	folds, err := ml.GroupKFold(d.Groups)
	if err != nil {
		return 0, err
	}
	results, err := ml.CrossValidateForest(d, folds, ml.ForestConfig{
		NumTrees: cfg.trees(), Seed: cfg.Seed, Workers: cfg.Workers,
	})
	if err != nil {
		return 0, err
	}
	return ml.MeanAccuracy(results), nil
}
