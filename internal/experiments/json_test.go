package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"gptattr/internal/corpus"
)

func TestResultsJSON(t *testing.T) {
	s := testSuite(t)
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var res Results
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if res.MaxStyles < 1 {
		t.Errorf("MaxStyles = %d", res.MaxStyles)
	}
	for _, y := range Years() {
		if len(res.StyleCounts[y]) != 8 {
			t.Errorf("year %d: style counts cover %d challenges, want 8", y, len(res.StyleCounts[y]))
		}
		if _, ok := res.Naive[y]; !ok {
			t.Errorf("year %d missing naive results", y)
		}
		if fb, ok := res.FeatureBased[y]; !ok || fb.TargetLabel == "" {
			t.Errorf("year %d missing feature-based results", y)
		}
		if b, ok := res.Binary[y]; !ok || len(b.FoldAccuracy) != 8 {
			t.Errorf("year %d binary malformed", y)
		}
	}
	if _, ok := res.Binary[-1]; !ok {
		t.Error("combined binary dataset missing (year -1)")
	}
	if len(settingsAsStrings()) != 4 {
		t.Error("settings helper wrong")
	}
}

// settingsAsStrings lists the corpus settings as the JSON keys the
// results use.
func settingsAsStrings() []string {
	out := make([]string, 0, 4)
	for _, s := range corpus.Settings() {
		out = append(out, string(s))
	}
	return out
}
