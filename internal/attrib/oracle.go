package attrib

import (
	"context"
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
	t, labels, err := oracleTask(human, nil, cfg)
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

// Predict attributes one source to an author label: Proba's best.
func (o *Oracle) Predict(src string) (string, error) {
	_, best, err := o.Proba(src)
	return best, err
}

// Proba returns the forest's vote share per author label for one
// source, alongside the predicted label. Extraction is the serving
// path's supervised one (retries, panic containment, fault point), so
// the offline oracle is the served oracle.
func (o *Oracle) Proba(src string) (map[string]float64, string, error) {
	sp, _, err := stylometry.ExtractSupervised(context.Background(), src, stylometry.DegradeNone, nil)
	if err != nil {
		return nil, "", err
	}
	out, best := o.ProbaSparse(sp)
	return out, best, nil
}

// ProbaFeatures is ProbaSparse over a feature map. Only the frozen
// servebench module calls it; everything else scores a Sparse.
func (o *Oracle) ProbaFeatures(f stylometry.Features) (map[string]float64, string) {
	return o.ProbaSparse(f.Sparse())
}

// ProbaSparse is ScoreInto with the vote shares keyed by author label,
// for offline callers: the vote share per label and the label with the
// most votes. It allocates the scores and the map; the serving path
// calls ScoreInto and never builds the map. sp is only read.
func (o *Oracle) ProbaSparse(sp *stylometry.Sparse) (map[string]float64, string) {
	proba := make([]float64, len(o.labels))
	best := o.ScoreInto(sp, proba)
	out := make(map[string]float64, len(o.labels))
	for i, p := range proba {
		out[o.labels[i]] = p
	}
	return out, o.labels[best]
}

// PredictCorpus attributes every sample, in order, reusing
// pre-extracted vectors when provided (pass nil to extract here).
func (o *Oracle) PredictCorpus(c *corpus.Corpus, feats []*stylometry.Sparse) ([]string, error) {
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
	for i, sp := range feats {
		s := o.reduce(sp)
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
// cross-validation over its own training set, OracleDataset(human,
// feats, cfg) — a sanity metric mirroring Caliskan-Islam's headline
// result — and reports how many columns that set selected.
func SelfAccuracy(human *corpus.Corpus, feats []*stylometry.Sparse, cfg Config) (acc float64, selected int, err error) {
	d, err := OracleDataset(human, feats, cfg)
	if err != nil {
		return 0, 0, err
	}
	folds, err := ml.GroupKFold(d.Groups)
	if err != nil {
		return 0, 0, err
	}
	results, err := ml.CrossValidateForest(d, folds, ml.ForestConfig{
		NumTrees: cfg.trees(), Seed: cfg.Seed, Workers: cfg.Workers,
	})
	if err != nil {
		return 0, 0, err
	}
	return ml.MeanAccuracy(results), d.NumFeatures(), nil
}
