package attrib

import (
	"fmt"
	"sort"

	"gptattr/internal/corpus"
	"gptattr/internal/ml"
	"gptattr/internal/stylometry"
)

// Approach selects how the ChatGPT set is formed before training the
// 205-author model.
type Approach int

// Approaches.
const (
	// ApproachNaive models a user who "accepts the first response
	// provided by the model": the ChatGPT set contains only the
	// initial (round-1) response of each transformation chain,
	// ignoring stylistic patterns entirely. The resulting class is
	// small and stylistically mixed, which is why the paper's naive
	// attribution collapses on years with diverse styles.
	ApproachNaive Approach = iota + 1
	// ApproachFeatureBased keeps only transformed samples whose
	// oracle-predicted label matches the dominant (target) label —
	// "sets of codes that exhibit similar features".
	ApproachFeatureBased
)

// String names the approach.
func (a Approach) String() string {
	switch a {
	case ApproachNaive:
		return "naive"
	case ApproachFeatureBased:
		return "feature-based"
	default:
		return fmt.Sprintf("Approach(%d)", int(a))
	}
}

// AttributionResult reports one Table VIII/IX experiment.
type AttributionResult struct {
	Approach Approach
	// TargetLabel is the dominant oracle label the feature-based set
	// was built from (empty for naive).
	TargetLabel string
	// Folds holds the per-challenge fold rows in challenge order.
	Folds []AttributionFold
	// MeanAccuracy is the average 205-class accuracy across folds.
	MeanAccuracy float64
	// ChatGPTRate is the fraction of folds whose held-out ChatGPT
	// samples were majority-attributed to the ChatGPT label (the
	// N / F columns' average row).
	ChatGPTRate float64
	// TargetRate is the fraction of folds where the target author's
	// held-out samples stayed correctly attributed (T column average;
	// zero/ignored for naive).
	TargetRate float64
	// SetSize is the number of ChatGPT samples used for training.
	SetSize int
}

// AttributionFold is one challenge-fold row.
type AttributionFold struct {
	Challenge string
	// Accuracy is the 205-class accuracy on the held-out challenge.
	Accuracy float64
	// ChatGPTOK reports whether held-out ChatGPT samples were
	// majority-classified as ChatGPT (vacuously true when the fold has
	// none, tracked by HasChatGPT).
	ChatGPTOK  bool
	HasChatGPT bool
	// TargetOK reports whether the target author's held-out samples
	// were majority-classified as that author.
	TargetOK  bool
	HasTarget bool
}

// ChatGPTLabel is the synthetic 205th class.
const ChatGPTLabel = "ChatGPT"

// EvaluateAttribution runs the paper's 205-author experiment: build
// the ChatGPT set from the transformed corpus per the approach, merge
// with the human corpus, train a fresh model per challenge fold, and
// score it (Tables VIII and IX).
func EvaluateAttribution(human, transformed *corpus.Corpus, oracle *Oracle,
	approach Approach, cfg Config) (*AttributionResult, error) {
	transFeats, err := ExtractAll(transformed, cfg)
	if err != nil {
		return nil, err
	}
	res := &AttributionResult{Approach: approach}

	set := transformed
	setFeats := transFeats
	if approach == ApproachNaive {
		// Keep only the initial response of each chain (round 1); when
		// the corpus carries no round numbers, keep everything.
		keep := &corpus.Corpus{}
		var keepFeats []*stylometry.Sparse
		for i, s := range transformed.Samples {
			if s.Round <= 1 {
				keep.Samples = append(keep.Samples, s)
				keepFeats = append(keepFeats, transFeats[i])
			}
		}
		if len(keep.Samples) > 0 {
			set = keep
			setFeats = keepFeats
		}
	}
	if approach == ApproachFeatureBased {
		if oracle == nil {
			return nil, fmt.Errorf("attrib: feature-based approach needs an oracle")
		}
		stats, err := AnalyzeStyles(oracle, transformed, transFeats)
		if err != nil {
			return nil, err
		}
		target, _ := stats.DominantLabel()
		res.TargetLabel = target
		keep := &corpus.Corpus{}
		var keepFeats []*stylometry.Sparse
		for i, s := range transformed.Samples {
			if stats.Predictions[i] == target {
				keep.Samples = append(keep.Samples, s)
				keepFeats = append(keepFeats, transFeats[i])
			}
		}
		set = keep
		setFeats = keepFeats
	}
	res.SetSize = len(set.Samples)
	if res.SetSize == 0 {
		return nil, fmt.Errorf("attrib: empty ChatGPT set")
	}

	humanFeats, err := ExtractAll(human, cfg)
	if err != nil {
		return nil, err
	}

	// Combined corpus: human authors + the ChatGPT set as one label.
	combined := corpus.Merge(human, set)
	combinedFeats := append(append([]*stylometry.Sparse{}, humanFeats...), setFeats...)

	labels := human.Authors()
	sort.Strings(labels)
	labels = append(labels, ChatGPTLabel)
	index := make(map[string]int, len(labels))
	for i, l := range labels {
		index[l] = i
	}
	labelOf := func(s corpus.Sample) int {
		if isChatGPT(s) {
			return index[ChatGPTLabel]
		}
		return index[s.Author]
	}
	d, _, _ := buildDataset(task{combined, combinedFeats, labelOf, len(labels)}, cfg)
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

	gptClass := index[ChatGPTLabel]
	targetClass := -1
	if res.TargetLabel != "" {
		targetClass = index[res.TargetLabel]
	}
	var accSum float64
	var gptOK, gptFolds, tgtOK, tgtFolds int
	for _, r := range results {
		fold := AttributionFold{
			Challenge: fmt.Sprintf("C%d", r.Fold+1),
			Accuracy:  r.Accuracy,
		}
		gptHit, gptTotal := 0, 0
		tgtHit, tgtTotal := 0, 0
		for i, truth := range r.Truth {
			if truth == gptClass {
				gptTotal++
				if r.Pred[i] == gptClass {
					gptHit++
				}
			}
			if targetClass >= 0 && truth == targetClass {
				tgtTotal++
				if r.Pred[i] == targetClass {
					tgtHit++
				}
			}
		}
		if gptTotal > 0 {
			fold.HasChatGPT = true
			fold.ChatGPTOK = gptHit*2 > gptTotal
			gptFolds++
			if fold.ChatGPTOK {
				gptOK++
			}
		}
		if tgtTotal > 0 {
			fold.HasTarget = true
			fold.TargetOK = tgtHit*2 > tgtTotal
			tgtFolds++
			if fold.TargetOK {
				tgtOK++
			}
		}
		accSum += r.Accuracy
		res.Folds = append(res.Folds, fold)
	}
	res.MeanAccuracy = accSum / float64(len(results))
	if gptFolds > 0 {
		res.ChatGPTRate = float64(gptOK) / float64(gptFolds)
	}
	if tgtFolds > 0 {
		res.TargetRate = float64(tgtOK) / float64(tgtFolds)
	}
	return res, nil
}
