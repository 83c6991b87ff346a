package attrib

import (
	"slices"
	"testing"

	"gptattr/internal/corpus"
	"gptattr/internal/gpt"
	"gptattr/internal/stylometry"
)

// testFixture builds a scaled-down year: fewer authors, trees, and
// rounds than the paper, but the same pipeline shape.
type testFixture struct {
	human       *corpus.Corpus
	transformed *corpus.Corpus
	oracle      *Oracle
	cfg         Config
}

var fixtureCache *testFixture

func fixture(t *testing.T) *testFixture {
	t.Helper()
	if fixtureCache != nil {
		return fixtureCache
	}
	cfg := Config{Trees: 20, TopFeatures: 300, Seed: 42}
	human, _, err := corpus.GenerateYear(corpus.YearConfig{Year: 2017, NumAuthors: 16, Seed: 1})
	if err != nil {
		t.Fatalf("GenerateYear: %v", err)
	}
	model := gpt.NewModel(gpt.Config{Seed: 2, NumStyles: 6})
	transformed, err := corpus.GenerateTransformed(corpus.TransformedConfig{
		Year: 2017, Rounds: 5, Model: model, Seed: 3, SkipVerify: true,
	})
	if err != nil {
		t.Fatalf("GenerateTransformed: %v", err)
	}
	oracle, err := TrainOracle(human, cfg)
	if err != nil {
		t.Fatalf("TrainOracle: %v", err)
	}
	fixtureCache = &testFixture{human: human, transformed: transformed, oracle: oracle, cfg: cfg}
	return fixtureCache
}

func TestOracleSelfPrediction(t *testing.T) {
	fx := fixture(t)
	// Training-set prediction should be near-perfect for an RF.
	preds, err := fx.oracle.PredictCorpus(fx.human, nil)
	if err != nil {
		t.Fatalf("PredictCorpus: %v", err)
	}
	hits := 0
	for i, p := range preds {
		if p == fx.human.Samples[i].Author {
			hits++
		}
	}
	acc := float64(hits) / float64(len(preds))
	if acc < 0.95 {
		t.Errorf("training-set accuracy = %.3f, want >= 0.95", acc)
	}
}

func TestOracleGeneralizesAcrossChallenges(t *testing.T) {
	fx := fixture(t)
	acc, _, err := SelfAccuracy(fx.human, nil, fx.cfg)
	if err != nil {
		t.Fatalf("SelfAccuracy: %v", err)
	}
	// Leave-one-challenge-out on 16 authors: style signal must carry
	// across problems (the premise of code stylometry).
	if acc < 0.6 {
		t.Errorf("grouped CV accuracy = %.3f, want >= 0.6", acc)
	}
	t.Logf("oracle grouped-CV accuracy (16 authors): %.3f", acc)
}

func TestTrainOracleEmpty(t *testing.T) {
	if _, err := TrainOracle(&corpus.Corpus{}, Config{}); err == nil {
		t.Error("empty corpus accepted")
	}
}

func TestAnalyzeStyles(t *testing.T) {
	fx := fixture(t)
	stats, err := AnalyzeStyles(fx.oracle, fx.transformed, nil)
	if err != nil {
		t.Fatalf("AnalyzeStyles: %v", err)
	}
	if len(stats.Predictions) != len(fx.transformed.Samples) {
		t.Fatalf("predictions = %d, want %d", len(stats.Predictions), len(fx.transformed.Samples))
	}
	total := 0
	for _, c := range stats.Histogram {
		total += c
	}
	if total != len(fx.transformed.Samples) {
		t.Errorf("histogram total = %d, want %d", total, len(fx.transformed.Samples))
	}
	if len(stats.CountsByChallenge) != 8 {
		t.Errorf("challenges covered = %d, want 8", len(stats.CountsByChallenge))
	}
	for ch, bySetting := range stats.CountsByChallenge {
		for set, n := range bySetting {
			if n < 1 {
				t.Errorf("%s/%s: style count %d < 1", ch, set, n)
			}
			if n > 16 {
				t.Errorf("%s/%s: style count %d exceeds author count", ch, set, n)
			}
		}
	}
	if mx := stats.MaxStyleCount(); mx < 1 || mx > 16 {
		t.Errorf("MaxStyleCount = %d out of range", mx)
	}
	for _, set := range corpus.Settings() {
		avg := stats.AverageStyleCount(set)
		if avg < 1 || avg > 16 {
			t.Errorf("setting %s: average %v out of range", set, avg)
		}
	}
	label, share := stats.DominantLabel()
	if label == "" || share <= 0 || share > 100 {
		t.Errorf("dominant label (%q, %v) malformed", label, share)
	}
	top := stats.TopLabels(2)
	for i := 1; i < len(top); i++ {
		if top[i].Occurrences > top[i-1].Occurrences {
			t.Error("TopLabels not sorted")
		}
	}
	for _, l := range top {
		if l.Occurrences < 2 {
			t.Error("TopLabels(2) kept a singleton")
		}
	}
}

func TestEvaluateAttributionBothApproaches(t *testing.T) {
	fx := fixture(t)
	naive, err := EvaluateAttribution(fx.human, fx.transformed, fx.oracle, ApproachNaive, fx.cfg)
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	fb, err := EvaluateAttribution(fx.human, fx.transformed, fx.oracle, ApproachFeatureBased, fx.cfg)
	if err != nil {
		t.Fatalf("feature-based: %v", err)
	}
	for _, res := range []*AttributionResult{naive, fb} {
		if len(res.Folds) != 8 {
			t.Fatalf("%s: folds = %d, want 8", res.Approach, len(res.Folds))
		}
		if res.MeanAccuracy <= 0 || res.MeanAccuracy > 1 {
			t.Errorf("%s: mean accuracy %v out of range", res.Approach, res.MeanAccuracy)
		}
		if res.ChatGPTRate < 0 || res.ChatGPTRate > 1 {
			t.Errorf("%s: ChatGPT rate %v out of range", res.Approach, res.ChatGPTRate)
		}
	}
	if naive.TargetLabel != "" {
		t.Error("naive approach has a target label")
	}
	if fb.TargetLabel == "" {
		t.Error("feature-based approach lacks a target label")
	}
	// Naive keeps only the initial response per chain: one sample per
	// setting per challenge.
	if naive.SetSize != 4*8 {
		t.Errorf("naive set = %d, want 32 (4 settings x 8 challenges, round 1 only)", naive.SetSize)
	}
	// The paper's core finding: grouping by similar features does not
	// hurt, and usually helps, ChatGPT-set attribution.
	if fb.ChatGPTRate+1e-9 < naive.ChatGPTRate {
		t.Logf("note: feature-based rate %.2f below naive %.2f at toy scale", fb.ChatGPTRate, naive.ChatGPTRate)
	}
	t.Logf("naive: acc=%.3f gptRate=%.2f; feature-based: acc=%.3f gptRate=%.2f target=%s rate=%.2f",
		naive.MeanAccuracy, naive.ChatGPTRate, fb.MeanAccuracy, fb.ChatGPTRate, fb.TargetLabel, fb.TargetRate)
}

func TestEvaluateAttributionNeedsOracleForFeatureBased(t *testing.T) {
	fx := fixture(t)
	if _, err := EvaluateAttribution(fx.human, fx.transformed, nil, ApproachFeatureBased, fx.cfg); err == nil {
		t.Error("feature-based without oracle accepted")
	}
}

func TestEvaluateBinary(t *testing.T) {
	fx := fixture(t)
	res, err := EvaluateBinary(fx.human, fx.transformed, fx.cfg)
	if err != nil {
		t.Fatalf("EvaluateBinary: %v", err)
	}
	if len(res.Folds) != 8 {
		t.Fatalf("folds = %d, want 8", len(res.Folds))
	}
	if res.GPTSamples != len(fx.transformed.Samples) {
		t.Errorf("GPT samples = %d, want %d", res.GPTSamples, len(fx.transformed.Samples))
	}
	if res.HumanSamples > res.GPTSamples {
		t.Errorf("human samples %d exceed GPT samples %d (balance broken)", res.HumanSamples, res.GPTSamples)
	}
	if res.MeanAccuracy < 0.6 {
		t.Errorf("binary accuracy = %.3f, want >= 0.6 even at toy scale", res.MeanAccuracy)
	}
	t.Logf("binary mean accuracy (toy scale): %.3f", res.MeanAccuracy)
}

func TestEvaluateBinaryEmpty(t *testing.T) {
	fx := fixture(t)
	if _, err := EvaluateBinary(&corpus.Corpus{}, fx.transformed, fx.cfg); err == nil {
		t.Error("empty human corpus accepted")
	}
}

func TestBinaryClassifierPredict(t *testing.T) {
	fx := fixture(t)
	clf, err := TrainBinary(fx.human, fx.transformed, fx.cfg)
	if err != nil {
		t.Fatalf("TrainBinary: %v", err)
	}
	// Training samples should mostly classify correctly.
	hits, total := 0, 0
	for _, s := range fx.human.Samples[:20] {
		isGPT, conf, err := clf.IsChatGPT(s.Source)
		if err != nil {
			t.Fatal(err)
		}
		if conf < 0 || conf > 1 {
			t.Fatalf("confidence %v out of range", conf)
		}
		if !isGPT {
			hits++
		}
		total++
	}
	for _, s := range fx.transformed.Samples[:20] {
		isGPT, _, err := clf.IsChatGPT(s.Source)
		if err != nil {
			t.Fatal(err)
		}
		if isGPT {
			hits++
		}
		total++
	}
	if acc := float64(hits) / float64(total); acc < 0.8 {
		t.Errorf("training-sample binary accuracy = %.2f, want >= 0.8", acc)
	}
}

// TestBuildDataset pins the training boundary's shape: one row per
// sample over the reduced columns, labels and challenge groups set,
// and identical sources vectorized to identical rows.
func TestBuildDataset(t *testing.T) {
	fx := fixture(t)
	c := &corpus.Corpus{Samples: []corpus.Sample{fx.human.Samples[0], fx.human.Samples[1], fx.human.Samples[0]}}
	c.Samples[1].Author = "other"
	d, err := OracleDataset(c, nil, Config{MinDocFreq: 1})
	if err != nil {
		t.Fatalf("OracleDataset: %v", err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("dataset invalid: %v", err)
	}
	if len(d.X) != 3 || d.NumClasses != 2 || len(d.Groups) != 3 || d.Groups[0] != challengeIndex(c.Samples[0].Challenge) {
		t.Errorf("dataset shape %dx%d, %d classes, groups %v", len(d.X), d.NumFeatures(), d.NumClasses, d.Groups)
	}
	if !slices.Equal(d.X[0], d.X[2]) || d.Y[0] != d.Y[2] || d.Y[0] == d.Y[1] {
		t.Errorf("identical sources gave rows or labels that differ, or distinct authors share a label: %v", d.Y)
	}
}

// TestBuildDatasetPropagatesError pins that a source failing to
// extract fails the dataset, and that vectors not matching the corpus
// are refused.
func TestBuildDatasetPropagatesError(t *testing.T) {
	c := &corpus.Corpus{Samples: []corpus.Sample{{Source: "", Author: "a", Challenge: "C1"}}}
	if _, err := OracleDataset(c, nil, Config{}); err == nil {
		t.Error("OracleDataset with an empty source succeeded")
	}
	if _, err := OracleDataset(c, []*stylometry.Sparse{}, Config{}); err == nil {
		t.Error("OracleDataset with no vector for its one sample succeeded")
	}
}

func TestChallengeIndex(t *testing.T) {
	tests := []struct {
		id   string
		want int
	}{
		{"C1", 1}, {"C8", 8}, {"C12", 12}, {"", 0}, {"X1", 0}, {"Cx", 0},
	}
	for _, tt := range tests {
		if got := challengeIndex(tt.id); got != tt.want {
			t.Errorf("challengeIndex(%q) = %d, want %d", tt.id, got, tt.want)
		}
	}
}

// TestFamiliesRestrictTraining pins the Config.Families ablation knob:
// an oracle trained on a single family must index only that family's
// features, and an unrestricted oracle must span all four.
func TestFamiliesRestrictTraining(t *testing.T) {
	fx := fixture(t)
	cfg := fx.cfg
	cfg.Families = []stylometry.FeatureFamily{stylometry.FamilySemantic}
	oracle, err := TrainOracle(fx.human, cfg)
	if err != nil {
		t.Fatalf("TrainOracle(semantic-only): %v", err)
	}
	names := oracle.vec.FeatureNames()
	if len(names) == 0 {
		t.Fatal("semantic-only oracle indexed no features")
	}
	for _, n := range names {
		if stylometry.Family(n) != stylometry.FamilySemantic {
			t.Fatalf("semantic-only oracle indexed %s feature %q", stylometry.Family(n), n)
		}
	}
	fams := map[stylometry.FeatureFamily]bool{}
	for _, n := range fx.oracle.vec.FeatureNames() {
		fams[stylometry.Family(n)] = true
	}
	for _, fam := range stylometry.AllFamilies {
		if !fams[fam] {
			t.Errorf("unrestricted oracle missing %s features", fam)
		}
	}
}
