package attrib

import (
	"fmt"

	"gptattr/internal/corpus"
	"gptattr/internal/ml"
	"gptattr/internal/stylometry"
)

// BinaryFold is one challenge-fold row of Table X.
type BinaryFold struct {
	Challenge string
	Accuracy  float64
}

// BinaryResult reports one Table X experiment.
type BinaryResult struct {
	Folds        []BinaryFold
	MeanAccuracy float64
	// HumanSamples and GPTSamples record the class balance used.
	HumanSamples int
	GPTSamples   int
}

// EvaluateBinary trains ChatGPT-vs-human classifiers with
// leave-one-challenge-out cross-validation (Table X). The human corpus
// is truncated per challenge to match the ChatGPT per-challenge count,
// mirroring the paper's balanced 1,600-vs-1,600 datasets.
func EvaluateBinary(human, transformed *corpus.Corpus, cfg Config) (*BinaryResult, error) {
	if len(human.Samples) == 0 || len(transformed.Samples) == 0 {
		return nil, fmt.Errorf("attrib: binary evaluation needs both classes")
	}
	// Per-challenge ChatGPT counts decide how many human samples per
	// challenge we keep (year-aware so combined datasets stay balanced).
	type chKey struct {
		year int
		ch   string
	}
	gptPer := map[chKey]int{}
	for _, s := range transformed.Samples {
		gptPer[chKey{s.Year, s.Challenge}]++
	}
	humanKept := &corpus.Corpus{}
	kept := map[chKey]int{}
	for _, s := range human.Samples {
		k := chKey{s.Year, s.Challenge}
		if gptPer[k] == 0 || kept[k] >= gptPer[k] {
			continue
		}
		kept[k]++
		humanKept.Samples = append(humanKept.Samples, s)
	}
	gptKept := transformed.Filter(func(s corpus.Sample) bool {
		return gptPer[chKey{s.Year, s.Challenge}] > 0
	})

	combined := corpus.Merge(humanKept, gptKept)
	feats, err := ExtractAll(combined, cfg)
	if err != nil {
		return nil, err
	}
	d, _, _ := buildDataset(task{combined, feats, gptClass, 2}, cfg)
	// Fold by (year, challenge) so the combined dataset leaves one
	// challenge of one year out at a time, like the paper's per-
	// challenge columns.
	groups := make([]int, len(combined.Samples))
	groupIDs := map[chKey]int{}
	for i, s := range combined.Samples {
		k := chKey{s.Year, s.Challenge}
		id, ok := groupIDs[k]
		if !ok {
			id = len(groupIDs)
			groupIDs[k] = id
		}
		groups[i] = id
	}
	d.Groups = groups

	folds, err := ml.GroupKFold(d.Groups)
	if err != nil {
		return nil, err
	}
	results, err := ml.CrossValidateForest(d, folds, ml.ForestConfig{
		NumTrees: cfg.trees(), Seed: cfg.Seed, Workers: cfg.Workers,
	})
	if err != nil {
		return nil, err
	}

	// Name folds back by their (year, challenge).
	nameOf := make(map[int]string)
	for k, id := range groupIDs {
		nameOf[id] = fmt.Sprintf("%d/%s", k.year, k.ch)
	}
	res := &BinaryResult{
		HumanSamples: len(humanKept.Samples),
		GPTSamples:   len(gptKept.Samples),
	}
	var sum float64
	for _, r := range results {
		// GroupKFold sorts group ids ascending; recover the id from the
		// fold's first test sample.
		label := ""
		if len(r.TestIdx) > 0 {
			label = nameOf[groups[r.TestIdx[0]]]
		}
		res.Folds = append(res.Folds, BinaryFold{Challenge: label, Accuracy: r.Accuracy})
		sum += r.Accuracy
	}
	res.MeanAccuracy = sum / float64(len(results))
	return res, nil
}

// Classifier is a fitted ChatGPT-vs-human model for the public API: it
// exposes Train/Predict over raw sources. It is the shared scoring
// core with two classes (1 = ChatGPT) and no labels of its own.
type Classifier struct {
	model
}

// TrainBinary fits a ChatGPT-vs-human classifier on full corpora
// (label 1 = ChatGPT).
func TrainBinary(human, transformed *corpus.Corpus, cfg Config) (*Classifier, error) {
	t, err := detectorTask(human, transformed, cfg)
	if err != nil {
		return nil, err
	}
	c := &Classifier{}
	if err := c.fit(t, cfg, nil); err != nil {
		return nil, fmt.Errorf("attrib: detector training: %w", err)
	}
	return c, nil
}

// detect returns the ChatGPT verdict and vote share for one reduced
// source (see model.reduce) and returns s to the pool.
func (c *Classifier) detect(s *vecScratch) (bool, float64) {
	c.forest.PredictProbaInto(s.row, s.proba)
	conf := s.proba[1]
	c.scratch.Put(s)
	return conf > 0.5, conf
}

// EvaluateOn scores the classifier on labelled corpora (human = class
// 0, gpt = class 1) and returns the balanced accuracy.
func (c *Classifier) EvaluateOn(human, gpt *corpus.Corpus) (float64, error) {
	score := func(cc *corpus.Corpus, wantGPT bool) (float64, error) {
		if len(cc.Samples) == 0 {
			return 0, fmt.Errorf("attrib: empty evaluation corpus")
		}
		feats, err := ExtractAll(cc, Config{})
		if err != nil {
			return 0, err
		}
		hits := 0
		for _, f := range feats {
			if gpt, _ := c.DetectFeatures(f); gpt == wantGPT {
				hits++
			}
		}
		return float64(hits) / float64(len(feats)), nil
	}
	h, err := score(human, false)
	if err != nil {
		return 0, err
	}
	g, err := score(gpt, true)
	if err != nil {
		return 0, err
	}
	return (h + g) / 2, nil
}

// IsChatGPT predicts whether a source looks ChatGPT-made, with the
// vote share as confidence.
func (c *Classifier) IsChatGPT(src string) (bool, float64, error) {
	f, err := stylometry.Extract(src)
	if err != nil {
		return false, 0, err
	}
	verdict, conf := c.DetectFeatures(f)
	return verdict, conf, nil
}

// DetectFeatures classifies pre-extracted features.
func (c *Classifier) DetectFeatures(f stylometry.Features) (bool, float64) {
	return c.detect(c.reduce(f, nil))
}

// DetectSparse classifies the compact form — the serving path, which
// never builds a feature map. sp is only read.
func (c *Classifier) DetectSparse(sp *stylometry.Sparse) (bool, float64) {
	return c.detect(c.reduce(nil, sp))
}
