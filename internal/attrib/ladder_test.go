package attrib

import (
	"bytes"
	"context"
	"testing"

	"gptattr/internal/corpus"
	"gptattr/internal/stylometry"
)

// miniCorpus builds a small, fast corpus for ladder tests (the shared
// fixture's 16 authors is overkill for three forests).
func miniCorpus(t *testing.T) *corpus.Corpus {
	t.Helper()
	human, _, err := corpus.GenerateYear(corpus.YearConfig{Year: 2017, NumAuthors: 6, Seed: 7})
	if err != nil {
		t.Fatalf("GenerateYear: %v", err)
	}
	return human
}

func TestTrainOracleLadder(t *testing.T) {
	human := miniCorpus(t)
	cfg := Config{Trees: 10, TopFeatures: 150, Seed: 42}
	ladder, err := TrainOracleLadder(human, cfg)
	if err != nil {
		t.Fatalf("TrainOracleLadder: %v", err)
	}
	for lvl := stylometry.DegradeNone; lvl <= stylometry.MaxDegrade; lvl++ {
		o := ladder[lvl]
		if o == nil {
			t.Fatalf("ladder[%v] missing", lvl)
		}
		if o.Level() != lvl {
			t.Errorf("ladder[%v].Level() = %v", lvl, o.Level())
		}
		if o.Calibration() <= 0 || o.Calibration() > 1 {
			t.Errorf("ladder[%v].Calibration() = %v, want (0,1]", lvl, o.Calibration())
		}
		// Every rung must score a vector degraded to its level without
		// indexing shed families.
		degraded, _, err := stylometry.ExtractSupervised(context.Background(), human.Samples[0].Source, lvl, nil)
		if err != nil {
			t.Fatalf("ExtractSupervised: %v", err)
		}
		if _, got := o.ProbaSparse(degraded); got == "" {
			t.Errorf("ladder[%v] produced empty prediction", lvl)
		}
	}

	// The deeper rungs' vocabularies must not reach into shed families.
	for lvl := stylometry.DegradeNoSemantic; lvl <= stylometry.MaxDegrade; lvl++ {
		for _, name := range ladder[lvl].vec.FeatureNames() {
			if !lvl.Keeps(stylometry.Family(name)) {
				t.Fatalf("ladder[%v] vectorizer indexes %s from a shed family", lvl, name)
			}
		}
	}
}

// TestLadderPersistRoundTrip pins that ladder metadata (level,
// families, calibration) survives Save/Load, and that a degraded
// vector scores identically before and after the round trip.
func TestLadderPersistRoundTrip(t *testing.T) {
	human := miniCorpus(t)
	cfg := Config{Trees: 10, TopFeatures: 150, Seed: 42}
	ladder, err := TrainOracleLadder(human, cfg)
	if err != nil {
		t.Fatalf("TrainOracleLadder: %v", err)
	}
	o := ladder[stylometry.DegradeNoSemantic]
	var buf bytes.Buffer
	if err := o.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := LoadOracle(&buf)
	if err != nil {
		t.Fatalf("LoadOracle: %v", err)
	}
	if got.Level() != o.Level() {
		t.Errorf("loaded level %v, want %v", got.Level(), o.Level())
	}
	if got.Calibration() != o.Calibration() {
		t.Errorf("loaded calibration %v, want %v", got.Calibration(), o.Calibration())
	}
	if len(got.Families()) != len(o.Families()) {
		t.Errorf("loaded %d families, want %d", len(got.Families()), len(o.Families()))
	}
	degraded, _, err := stylometry.ExtractSupervised(context.Background(), human.Samples[1].Source, o.Level(), nil)
	if err != nil {
		t.Fatalf("ExtractSupervised: %v", err)
	}
	p1, b1 := o.ProbaSparse(degraded)
	p2, b2 := got.ProbaSparse(degraded)
	if b1 != b2 {
		t.Fatalf("prediction changed across round trip: %s vs %s", b1, b2)
	}
	for k, v := range p1 {
		if p2[k] != v {
			t.Fatalf("proba[%s] changed across round trip: %v vs %v", k, v, p2[k])
		}
	}
}

// TestLegacyEnvelopeLoads pins back-compat: a model saved without
// ladder metadata (the pre-ladder Save path writes zero values, which
// omitempty elides) loads as level 0, uncalibrated.
func TestLegacyEnvelopeLoads(t *testing.T) {
	human := miniCorpus(t)
	o, err := TrainOracle(human, Config{Trees: 5, TopFeatures: 100, Seed: 42})
	if err != nil {
		t.Fatalf("TrainOracle: %v", err)
	}
	var buf bytes.Buffer
	if err := o.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := LoadOracle(&buf)
	if err != nil {
		t.Fatalf("LoadOracle: %v", err)
	}
	if got.Level() != stylometry.DegradeNone || got.Calibration() != 0 {
		t.Fatalf("legacy model loaded as level %v calib %v, want 0/0", got.Level(), got.Calibration())
	}
}

func TestTrainBinaryLadder(t *testing.T) {
	fx := fixture(t)
	cfg := Config{Trees: 8, TopFeatures: 150, Seed: 42}
	ladder, err := TrainBinaryLadder(fx.human, fx.transformed, cfg)
	if err != nil {
		t.Fatalf("TrainBinaryLadder: %v", err)
	}
	for lvl := stylometry.DegradeNone; lvl <= stylometry.MaxDegrade; lvl++ {
		c := ladder[lvl]
		if c == nil {
			t.Fatalf("ladder[%v] missing", lvl)
		}
		if c.Level() != lvl {
			t.Errorf("ladder[%v].Level() = %v", lvl, c.Level())
		}
		degraded, _, err := stylometry.ExtractSupervised(context.Background(), fx.transformed.Samples[0].Source, lvl, nil)
		if err != nil {
			t.Fatalf("ExtractSupervised: %v", err)
		}
		if _, conf := c.DetectSparse(degraded); conf < 0 || conf > 1 {
			t.Errorf("ladder[%v] confidence %v out of range", lvl, conf)
		}
	}
}

// Level reports the degrade-ladder position the model was trained for
// (0 for models trained on the full feature set).
func (m *model) Level() stylometry.DegradeLevel { return m.level }

// Families reports the feature families the model was trained on
// (nil = unrestricted).
func (m *model) Families() []stylometry.FeatureFamily { return m.families }
