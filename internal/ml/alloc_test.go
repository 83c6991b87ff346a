package ml

import (
	"math/rand"
	"testing"
)

// allocDataset builds a small deterministic dataset for steady-state
// allocation checks.
func allocDataset(t testing.TB) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	const n, feats, classes = 90, 12, 3
	X := make([][]float64, n)
	Y := make([]int, n)
	for i := range X {
		cls := i % classes
		row := make([]float64, feats)
		for j := range row {
			row[j] = rng.NormFloat64() + float64(cls)*0.6
		}
		X[i] = row
		Y[i] = cls
	}
	return &Dataset{X: X, Y: Y, NumClasses: classes}
}

// TestServingPathAllocs pins the allocation-free contract of the *Into
// prediction variants: once warm, per-call voting must not allocate.
// The averages tolerate a stray GC-driven allocation without flaking.
func TestServingPathAllocs(t *testing.T) {
	d := allocDataset(t)
	forest, err := FitForest(d, ForestConfig{NumTrees: 15, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatalf("FitForest: %v", err)
	}
	row := d.X[0]
	proba := make([]float64, forest.NumClasses())
	out := make([]int, len(d.X))

	if a := testing.AllocsPerRun(100, func() { forest.PredictProbaInto(row, proba) }); a > 0 {
		t.Errorf("PredictProbaInto allocates %.2f per call, want 0", a)
	}
	// PredictAllInto may allocate its one per-batch vote-matrix scratch
	// (single-block serial path); anything beyond that is a regression.
	if a := testing.AllocsPerRun(100, func() { forest.PredictAllInto(d.X, out) }); a > 1 {
		t.Errorf("PredictAllInto allocates %.2f per batch, want <= 1", a)
	}
}
