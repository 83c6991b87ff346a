package attrib

import (
	"fmt"
	"sort"
	"sync"

	"gptattr/internal/corpus"
	"gptattr/internal/ml"
	"gptattr/internal/stylometry"
)

// model is the scoring core shared by Oracle and Classifier: the
// paper's two models are one learner (an information-gain-reduced
// random forest over one stylometry vectorizer) with different labels,
// so fitting, reduction, persistence and the ladder metadata live here
// once and both types embed it.
type model struct {
	forest *ml.Forest
	vec    *stylometry.Vectorizer
	cols   []int

	// level is the degrade-ladder position the model was trained for
	// (0 = full feature set); families names the feature families its
	// training corpus was filtered to (empty = unrestricted). Both ride
	// in the persisted envelope so a serving registry can match
	// degraded vectors to the model trained on exactly those families.
	level    stylometry.DegradeLevel
	families []stylometry.FeatureFamily

	// calib is the training-time out-of-bag accuracy estimate (0 =
	// uncalibrated legacy model). Serving multiplies the vote share by
	// it so a degraded answer's confidence reflects the weaker model.
	calib float64

	// scratch pools per-prediction buffers for the serving path; the
	// zero value is ready to use, so persisted-model loading needs no
	// extra wiring.
	scratch sync.Pool
}

// Calibration reports the training-time out-of-bag accuracy estimate
// (0 = unknown; legacy models persisted before calibration existed).
func (m *model) Calibration() float64 { return m.calib }

// task is one training problem: a corpus, its pre-extracted features,
// and the class of each sample.
type task struct {
	c          *corpus.Corpus
	feats      []stylometry.Features
	labelOf    func(corpus.Sample) int
	numClasses int
}

// oracleTask extracts a human corpus for authorship training and
// returns it with the sorted author labels (class i = labels[i]).
func oracleTask(human *corpus.Corpus, cfg Config) (task, []string, error) {
	if len(human.Samples) == 0 {
		return task{}, nil, fmt.Errorf("attrib: empty oracle corpus")
	}
	labels := human.Authors()
	sort.Strings(labels)
	index := make(map[string]int, len(labels))
	for i, l := range labels {
		index[l] = i
	}
	feats, err := ExtractAll(human, cfg)
	if err != nil {
		return task{}, nil, err
	}
	labelOf := func(s corpus.Sample) int { return index[s.Author] }
	return task{human, feats, labelOf, len(labels)}, labels, nil
}

// detectorTask merges and extracts the two corpora for ChatGPT-vs-human
// training (class 1 = ChatGPT).
func detectorTask(human, transformed *corpus.Corpus, cfg Config) (task, error) {
	combined := corpus.Merge(human, transformed)
	if len(combined.Samples) == 0 {
		return task{}, fmt.Errorf("attrib: empty detector corpus")
	}
	feats, err := ExtractAll(combined, cfg)
	if err != nil {
		return task{}, err
	}
	return task{combined, feats, gptClass, 2}, nil
}

// isChatGPT reports whether a sample was written or transformed by
// ChatGPT.
func isChatGPT(s corpus.Sample) bool {
	return s.Origin == corpus.OriginGPTTransformed || s.Origin == corpus.OriginGPT
}

// gptClass is the detector's label function: 1 = ChatGPT, 0 = human.
func gptClass(s corpus.Sample) int {
	if isChatGPT(s) {
		return 1
	}
	return 0
}

// fit trains the core on t. With rung nil it fits a plain model: it
// honours cfg.Families but records no level, families or calibration,
// so it persists exactly as a pre-ladder model. With rung non-nil it
// fits that degrade-ladder rung on the families surviving at *rung and
// records them with the out-of-bag accuracy as calibration.
func (m *model) fit(t task, cfg Config, rung *stylometry.DegradeLevel) error {
	if rung != nil {
		cfg.Families = rung.Families()
	}
	d, vec, cols := buildDataset(t, cfg)
	fcfg := ml.ForestConfig{NumTrees: cfg.trees(), Seed: cfg.Seed, Workers: cfg.Workers}
	var err error
	if rung == nil {
		m.forest, err = ml.FitForest(d, fcfg)
	} else {
		var oob *ml.OOBResult
		if m.forest, oob, err = ml.FitForestOOB(d, fcfg); err == nil {
			m.level, m.families, m.calib = *rung, cfg.Families, oob.Accuracy
		}
	}
	m.vec, m.cols = vec, cols
	return err
}

// vecScratch bundles the per-prediction buffers of a serving-path
// model call: the full vectorizer row, the column-reduced model row,
// and per-class votes/probabilities. Pooling these keeps the hot
// request path allocation-free while remaining safe under the serve
// batcher's concurrency.
type vecScratch struct {
	full  []float64
	row   []float64
	votes []int
	proba []float64
}

// reduce vectorizes one source into pooled scratch and leaves its
// column-reduced row in s.row: from sp when it is non-nil (the serving
// path, which never builds a map), else from f. The caller returns s
// to m.scratch when done. Models are immutable once built, so the
// buffer sizes are fixed per model and a pooled entry always fits.
func (m *model) reduce(f stylometry.Features, sp *stylometry.Sparse) *vecScratch {
	s, _ := m.scratch.Get().(*vecScratch)
	if s == nil {
		nClasses := m.forest.NumClasses()
		s = &vecScratch{
			full:  make([]float64, m.vec.NumFeatures()),
			row:   make([]float64, len(m.cols)),
			votes: make([]int, nClasses),
			proba: make([]float64, nClasses),
		}
	}
	if sp != nil {
		m.vec.VectorIntoSparse(sp, s.full)
	} else {
		m.vec.VectorInto(f, s.full)
	}
	for i, c := range m.cols {
		s.row[i] = s.full[c]
	}
	return s
}
