package attrib

import (
	"math"
	"reflect"
	"testing"

	"gptattr/internal/fault"
	"gptattr/internal/stylometry"
)

// TestOfflineScoringIsSupervised pins that Oracle.Proba and
// Classifier.IsChatGPT extract the way the server does, through
// stylometry.ExtractSupervised: an extraction fault that outlives the
// retry budget surfaces as a transient error, and one that stays under
// it is absorbed with the clean answer returned bit for bit.
func TestOfflineScoringIsSupervised(t *testing.T) {
	fx := fixture(t)
	c, err := TrainBinary(fx.human, fx.transformed, fx.cfg)
	if err != nil {
		t.Fatalf("TrainBinary: %v", err)
	}
	src := fx.transformed.Samples[0].Source
	wantProba, wantBest, err := fx.oracle.Proba(src)
	if err != nil {
		t.Fatalf("Proba: %v", err)
	}
	wantGPT, wantConf, err := c.IsChatGPT(src)
	if err != nil {
		t.Fatalf("IsChatGPT: %v", err)
	}

	defer fault.Disable()
	fault.Enable(26)
	arm := func(limit int) {
		fault.Set(stylometry.PointExtract, fault.Policy{Kind: fault.KindError, Limit: limit})
	}

	arm(0)
	if _, _, err := fx.oracle.Proba(src); !fault.IsTransient(err) {
		t.Errorf("Proba under an unlimited extraction fault: err = %v, want a transient error", err)
	}
	if _, _, err := c.IsChatGPT(src); !fault.IsTransient(err) {
		t.Errorf("IsChatGPT under an unlimited extraction fault: err = %v, want a transient error", err)
	}

	arm(stylometry.ExtractRetries - 1)
	proba, best, err := fx.oracle.Proba(src)
	if err != nil || best != wantBest || !reflect.DeepEqual(proba, wantProba) {
		t.Errorf("Proba under a bounded fault = %v %v %v, want %v %v", best, proba, err, wantBest, wantProba)
	}
	if fires := fault.Stats()[stylometry.PointExtract].Fires; fires != stylometry.ExtractRetries-1 {
		t.Errorf("Proba: fault fired %d times, want %d", fires, stylometry.ExtractRetries-1)
	}

	arm(stylometry.ExtractRetries - 1)
	gpt, conf, err := c.IsChatGPT(src)
	if err != nil || gpt != wantGPT || math.Float64bits(conf) != math.Float64bits(wantConf) {
		t.Errorf("IsChatGPT under a bounded fault = (%v, %v, %v), want (%v, %v)", gpt, conf, err, wantGPT, wantConf)
	}
	if fires := fault.Stats()[stylometry.PointExtract].Fires; fires != stylometry.ExtractRetries-1 {
		t.Errorf("IsChatGPT: fault fired %d times, want %d", fires, stylometry.ExtractRetries-1)
	}
}
