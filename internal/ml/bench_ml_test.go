package ml

import (
	"math/rand"
	"testing"
)

// benchRow fills one bench-scale feature row for class c using rng.
// The mix models a reduced stylometric design matrix: mostly sparse
// token/word-unigram frequencies (zero-heavy, small quantized counts),
// a band of quantized layout ratios, and a few continuous AST metrics.
func benchRow(row []float64, c int, rng *rand.Rand) {
	for j := range row {
		switch {
		case j < 200: // sparse term frequencies
			if rng.Float64() < 0.12+0.5*float64((c*31+j)%7)/7 {
				row[j] = float64(1+rng.Intn(4)) / 16
			} else {
				row[j] = 0
			}
		case j < 260: // quantized layout ratios
			row[j] = float64(rng.Intn(9)+(c+j)%25) / 32
		default: // continuous AST-depth style metrics
			row[j] = float64((c+j)%13)*0.35 + rng.NormFloat64()
		}
	}
}

// benchDataset builds the "bench scale" training set the recorded
// BENCH_ml.json baseline refers to: 50 authors x 8 samples over 300
// features — the shape and sparsity profile of one year's reduced
// stylometric design matrix. Keep this in sync with the baseline file;
// changing the shape invalidates recorded numbers.
func benchDataset() *Dataset {
	rng := rand.New(rand.NewSource(97))
	d := &Dataset{NumClasses: 50}
	for c := 0; c < 50; c++ {
		for s := 0; s < 8; s++ {
			row := make([]float64, 300)
			benchRow(row, c, rng)
			d.X = append(d.X, row)
			d.Y = append(d.Y, c)
		}
	}
	return d
}

// BenchmarkFitForest is the acceptance benchmark for the training
// engine: 25 trees at bench scale, sequential (Workers=1) so the
// number measures induction cost, not scheduling. The dataset's
// column-major mirror is built before the timer: it is built once per
// dataset, and amortized over b.N it would make the per-op alloc count
// depend on how many ops the machine's speed fits in -benchtime.
func BenchmarkFitForest(b *testing.B) {
	d := benchDataset()
	d.columns()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitForest(d, ForestConfig{NumTrees: 25, Seed: 7, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBestSplit isolates one full root-node split search (the
// per-node inner loop of induction) over a bootstrap sample.
func BenchmarkBestSplit(b *testing.B) {
	d := benchDataset()
	n := len(d.X)
	rng := rand.New(rand.NewSource(3))
	boot := make([]int, n)
	for i := range boot {
		boot[i] = rng.Intn(n)
	}
	cfg := TreeConfig{MTry: 17, MaxDepth: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(11))
		if _, err := FitTree(d, boot, cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictAll measures batch prediction of 1000 rows through a
// 40-tree forest.
func BenchmarkPredictAll(b *testing.B) {
	d := benchDataset()
	f, err := FitForest(d, ForestConfig{NumTrees: 40, Seed: 13, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	X := make([][]float64, 1000)
	for i := range X {
		row := make([]float64, 300)
		benchRow(row, i%50, rng)
		X[i] = row
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := f.PredictAll(X); len(out) != len(X) {
			b.Fatal("short prediction")
		}
	}
}
