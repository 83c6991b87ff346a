// Package attribution is the public API of this repository: code
// stylometry, authorship attribution, ChatGPT-style code
// transformation, and ChatGPT-vs-human detection for C++ sources, as
// studied in "Attributing ChatGPT-Transformed Synthetic Code"
// (ICDCS 2025).
//
// The package wraps the internal pipeline behind four entry points:
//
//   - Features extracts the stylometric feature vector of one source.
//   - TrainAuthorship fits a multi-author attribution model from
//     labelled sources and predicts authors for new code.
//   - NewTransformer simulates ChatGPT code transformation (NCT and CT
//     protocols) with verified behaviour preservation.
//   - TrainDetector fits a binary ChatGPT-vs-human classifier.
package attribution

import (
	"fmt"
	"io"
	"sort"

	"gptattr/internal/attrib"
	"gptattr/internal/corpus"
	"gptattr/internal/featcache"
	"gptattr/internal/gpt"
	"gptattr/internal/ml"
	"gptattr/internal/style"
	"gptattr/internal/stylometry"
)

// Features returns the stylometric feature map (lexical, layout, and
// syntactic features per Caliskan-Islam et al.) for a C++ source.
func Features(src string) (map[string]float64, error) {
	f, err := stylometry.Extract(src)
	if err != nil {
		return nil, err
	}
	return map[string]float64(f), nil
}

// Params tunes model training. The zero value uses sensible defaults
// (100 trees, 700 selected features).
type Params struct {
	// Trees is the random-forest size.
	Trees int
	// TopFeatures bounds information-gain feature selection.
	TopFeatures int
	// Seed makes training deterministic.
	Seed int64
	// Workers bounds parallel feature extraction, cross-validation,
	// and tree building (0 = GOMAXPROCS). Results are identical at any
	// worker count.
	Workers int
	// CacheDir enables an on-disk feature cache so repeated runs over
	// unchanged sources skip extraction.
	CacheDir string
}

func (p Params) config() (attrib.Config, error) {
	cfg := attrib.Config{Trees: p.Trees, TopFeatures: p.TopFeatures, Seed: p.Seed, Workers: p.Workers}
	if p.CacheDir != "" {
		cache, err := featcache.New(featcache.Options{Dir: p.CacheDir})
		if err != nil {
			return cfg, err
		}
		cfg.Cache = cache
	}
	return cfg, nil
}

// AuthorshipModel attributes C++ code to known authors.
type AuthorshipModel struct {
	oracle *attrib.Oracle
}

// authorshipCorpus validates samples and builds the training corpus.
func authorshipCorpus(samples map[string][]string) (*corpus.Corpus, error) {
	if len(samples) < 2 {
		return nil, fmt.Errorf("attribution: need at least 2 authors, got %d", len(samples))
	}
	authors := make([]string, 0, len(samples))
	for a := range samples {
		authors = append(authors, a)
	}
	sort.Strings(authors)
	c := &corpus.Corpus{}
	for _, a := range authors {
		srcs := samples[a]
		if len(srcs) == 0 {
			return nil, fmt.Errorf("attribution: author %q has no samples", a)
		}
		for i, src := range srcs {
			c.Samples = append(c.Samples, corpus.Sample{
				Source:    src,
				Author:    a,
				Challenge: fmt.Sprintf("C%d", i+1),
				Origin:    corpus.OriginHuman,
			})
		}
	}
	return c, nil
}

// TrainAuthorship fits an attribution model from labelled sources:
// samples maps each author name to that author's source files. Every
// author needs at least one sample; two or more authors are required.
func TrainAuthorship(samples map[string][]string, p Params) (*AuthorshipModel, error) {
	c, err := authorshipCorpus(samples)
	if err != nil {
		return nil, err
	}
	cfg, err := p.config()
	if err != nil {
		return nil, err
	}
	oracle, err := attrib.TrainOracle(c, cfg)
	if err != nil {
		return nil, err
	}
	return &AuthorshipModel{oracle: oracle}, nil
}

// AuthorshipLadder is the graceful-degradation counterpart of
// AuthorshipModel: one model per degrade level, all trained on the
// same corpus in one extraction pass. Level 0 sees every feature
// family; deeper levels are trained on the nested subsets the serving
// layer falls back to when extraction runs out of budget (1 = without
// semantic features, 2 = layout+lexical only). Each rung carries an
// out-of-bag accuracy estimate the server reports as calibration.
type AuthorshipLadder struct {
	ladder *attrib.OracleLadder
}

// TrainAuthorshipLadder fits the full fallback ladder (see
// AuthorshipLadder) from labelled sources.
func TrainAuthorshipLadder(samples map[string][]string, p Params) (*AuthorshipLadder, error) {
	c, err := authorshipCorpus(samples)
	if err != nil {
		return nil, err
	}
	cfg, err := p.config()
	if err != nil {
		return nil, err
	}
	ladder, err := attrib.TrainOracleLadder(c, cfg)
	if err != nil {
		return nil, err
	}
	return &AuthorshipLadder{ladder: ladder}, nil
}

// Levels reports how many rungs the ladder holds (level 0 = full).
func (l *AuthorshipLadder) Levels() int { return len(l.ladder) }

// Model returns one rung as a standalone AuthorshipModel.
func (l *AuthorshipLadder) Model(level int) (*AuthorshipModel, error) {
	if level < 0 || level >= len(l.ladder) {
		return nil, fmt.Errorf("attribution: ladder level %d out of range [0,%d]", level, len(l.ladder)-1)
	}
	return &AuthorshipModel{oracle: l.ladder[level]}, nil
}

// SaveLevel serializes one rung to w (same format as
// AuthorshipModel.Save; the level and calibration ride in the header).
func (l *AuthorshipLadder) SaveLevel(level int, w io.Writer) error {
	m, err := l.Model(level)
	if err != nil {
		return err
	}
	return m.Save(w)
}

// Authors lists the model's known author labels.
func (m *AuthorshipModel) Authors() []string { return m.oracle.Labels() }

// Save serializes the trained model to w (JSON).
func (m *AuthorshipModel) Save(w io.Writer) error { return m.oracle.Save(w) }

// LoadAuthorshipModel restores a model saved with Save.
func LoadAuthorshipModel(r io.Reader) (*AuthorshipModel, error) {
	o, err := attrib.LoadOracle(r)
	if err != nil {
		return nil, err
	}
	return &AuthorshipModel{oracle: o}, nil
}

// Predict attributes one source to the most likely known author.
func (m *AuthorshipModel) Predict(src string) (string, error) {
	return m.oracle.Predict(src)
}

// DetectStyle infers the style axes of one C++ source (naming
// convention, indentation, brace placement, I/O idiom, loop idiom,
// decomposition) as a readable map.
func DetectStyle(src string) map[string]string {
	p := style.Detect(src)
	out := map[string]string{
		"naming": p.Naming.String(),
		"io":     map[style.IO]string{style.IOStreams: "streams", style.IOStdio: "stdio", style.IOMixed: "mixed"}[p.IO],
		"braces": map[style.Brace]string{style.BraceKR: "k&r", style.BraceAllman: "allman"}[p.Brace],
		"loops":  map[style.Loop]string{style.LoopFor: "for", style.LoopWhile: "while"}[p.Loop],
	}
	switch {
	case p.Indent.UseTabs:
		out["indent"] = "tabs"
	default:
		out["indent"] = fmt.Sprintf("%d spaces", p.Indent.Width)
	}
	switch p.Decomp {
	case style.DecompInline:
		out["decomposition"] = "inline main"
	case style.DecompSolvePrint:
		out["decomposition"] = "helper prints"
	default:
		out["decomposition"] = "helper returns value"
	}
	if p.UsingNamespaceStd {
		out["namespace"] = "using namespace std"
	} else {
		out["namespace"] = "std:: qualified"
	}
	return out
}

// Transformer rewrites C++ code in the simulated ChatGPT's styles.
type Transformer struct {
	model *gpt.Model
}

// TransformerConfig tunes the simulated model; the zero value uses the
// paper-calibrated defaults (12 styles, Zipf-skewed usage).
type TransformerConfig struct {
	// Styles bounds the style repertoire (default 12).
	Styles int
	// Seed makes transformation sequences deterministic.
	Seed int64
}

// NewTransformer builds a simulated ChatGPT transformer.
func NewTransformer(cfg TransformerConfig) *Transformer {
	return &Transformer{model: gpt.NewModel(gpt.Config{NumStyles: cfg.Styles, Seed: cfg.Seed})}
}

// Transform rewrites src once in a sampled style. When inputs are
// given, the rewrite is verified to produce identical stdout on each
// input (and the call fails rather than return a behaviour-changing
// rewrite).
func (t *Transformer) Transform(src string, inputs ...string) (string, error) {
	r, err := t.model.Transform(src, -1, inputs)
	if err != nil {
		return "", err
	}
	return r.Source, nil
}

// NCT applies the paper's non-chaining protocol: rounds independent
// transformations of the same original.
func (t *Transformer) NCT(src string, rounds int, inputs ...string) ([]string, error) {
	rs, err := t.model.NCT(src, rounds, inputs)
	if err != nil {
		return nil, err
	}
	return sources(rs), nil
}

// NCTParallel is NCT with the independent rounds spread over a bounded
// worker pool (workers <= 0 means GOMAXPROCS). Each round is seeded
// from the transformer seed and the round index, so for a given seed
// the variants are identical at any worker count — though they differ
// from the sequential NCT stream, which threads one RNG through all
// rounds.
func (t *Transformer) NCTParallel(src string, rounds, workers int, inputs ...string) ([]string, error) {
	rs, err := t.model.NCTParallel(src, rounds, inputs, workers)
	if err != nil {
		return nil, err
	}
	return sources(rs), nil
}

// CT applies the chaining protocol: each round transforms the previous
// round's output.
func (t *Transformer) CT(src string, rounds int, inputs ...string) ([]string, error) {
	rs, err := t.model.CT(src, rounds, inputs)
	if err != nil {
		return nil, err
	}
	return sources(rs), nil
}

func sources(rs []gpt.Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Source
	}
	return out
}

// Detector is a binary ChatGPT-vs-human classifier.
type Detector struct {
	clf *attrib.Classifier
}

// TrainDetector fits a detector from human-written and
// ChatGPT-produced sources.
func TrainDetector(human, chatgpt []string, p Params) (*Detector, error) {
	if len(human) == 0 || len(chatgpt) == 0 {
		return nil, fmt.Errorf("attribution: both classes need samples (human %d, chatgpt %d)",
			len(human), len(chatgpt))
	}
	h := &corpus.Corpus{}
	for i, src := range human {
		h.Samples = append(h.Samples, corpus.Sample{
			Source: src, Author: "human",
			Challenge: fmt.Sprintf("C%d", i%8+1),
			Origin:    corpus.OriginHuman,
		})
	}
	g := &corpus.Corpus{}
	for i, src := range chatgpt {
		g.Samples = append(g.Samples, corpus.Sample{
			Source: src, Author: "ChatGPT",
			Challenge: fmt.Sprintf("C%d", i%8+1),
			Origin:    corpus.OriginGPTTransformed,
		})
	}
	cfg, err := p.config()
	if err != nil {
		return nil, err
	}
	clf, err := attrib.TrainBinary(h, g, cfg)
	if err != nil {
		return nil, err
	}
	return &Detector{clf: clf}, nil
}

// IsChatGPT reports whether the source looks ChatGPT-made, with the
// forest's vote share as confidence in [0,1].
func (d *Detector) IsChatGPT(src string) (bool, float64, error) {
	return d.clf.IsChatGPT(src)
}

// Save serializes the trained detector to w (JSON).
func (d *Detector) Save(w io.Writer) error { return d.clf.Save(w) }

// LoadDetector restores a detector saved with Save.
func LoadDetector(r io.Reader) (*Detector, error) {
	clf, err := attrib.LoadClassifier(r)
	if err != nil {
		return nil, err
	}
	return &Detector{clf: clf}, nil
}

// CrossValidateAuthorship estimates attribution accuracy by stratified
// k-fold cross-validation over the labelled samples, returning the
// mean accuracy. The samples are checked as TrainAuthorship checks
// them, and the folds train on the set TrainAuthorship fits.
func CrossValidateAuthorship(samples map[string][]string, k int, p Params) (float64, error) {
	if k < 2 {
		return 0, fmt.Errorf("attribution: k = %d, want >= 2", k)
	}
	c, err := authorshipCorpus(samples)
	if err != nil {
		return 0, err
	}
	cfg, err := p.config()
	if err != nil {
		return 0, err
	}
	d, err := attrib.OracleDataset(c, nil, cfg)
	if err != nil {
		return 0, err
	}
	folds, err := ml.StratifiedKFold(d.Y, k, nil)
	if err != nil {
		return 0, err
	}
	results, err := ml.CrossValidateForest(d, folds, ml.ForestConfig{
		NumTrees: cfg.Trees, Seed: p.Seed, Workers: p.Workers,
	})
	if err != nil {
		return 0, err
	}
	return ml.AggregateFolds(results)
}
