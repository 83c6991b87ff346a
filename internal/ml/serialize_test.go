package ml

import (
	"bytes"
	"strings"
	"testing"
)

func TestForestEncodeDecodeRoundTrip(t *testing.T) {
	d := blobs(4, 25, 5, 1.0, 31)
	f, err := FitForest(d, ForestConfig{NumTrees: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	g, err := DecodeForest(&buf)
	if err != nil {
		t.Fatalf("DecodeForest: %v", err)
	}
	if g.NumTrees() != f.NumTrees() {
		t.Fatalf("trees = %d, want %d", g.NumTrees(), f.NumTrees())
	}
	pa, pb := make([]float64, f.NumClasses()), make([]float64, g.NumClasses())
	for i, x := range d.X {
		if f.Predict(x) != g.Predict(x) {
			t.Fatalf("sample %d: prediction diverged after round trip", i)
		}
		f.PredictProbaInto(x, pa)
		g.PredictProbaInto(x, pb)
		for c := range pa {
			if pa[c] != pb[c] {
				t.Fatalf("sample %d class %d: proba diverged", i, c)
			}
		}
	}
}

func TestDecodeForestRejectsGarbage(t *testing.T) {
	tests := []struct {
		name string
		data string
	}{
		{"not json", "hello"},
		{"no classes", `{"num_classes":0,"trees":[]}`},
		{"no trees", `{"num_classes":3,"trees":[]}`},
		{"ragged arrays", `{"num_classes":2,"trees":[{"feature":[0],"threshold":[],"left":[],"right":[],"class":[]}]}`},
		{"bad child index", `{"num_classes":2,"trees":[{"feature":[0],"threshold":[1.0],"left":[5],"right":[0],"class":[0]}]}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodeForest(strings.NewReader(tt.data)); err == nil {
				t.Error("garbage accepted")
			}
		})
	}
}
