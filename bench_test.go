// Package gptattr benchmarks regenerate every table and figure of the
// paper's evaluation (see DESIGN.md §3 for the experiment index) at a
// shape-preserving reduced scale, plus micro-benchmarks of each
// substrate. Run the full paper scale with:
//
//	go run ./cmd/experiments -scale paper
package gptattr

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"gptattr/internal/arena"
	"gptattr/internal/attrib"
	"gptattr/internal/challenge"
	"gptattr/internal/codegen"
	"gptattr/internal/corpus"
	"gptattr/internal/cppast"
	"gptattr/internal/cppinterp"
	"gptattr/internal/experiments"
	"gptattr/internal/featcache"
	"gptattr/internal/gpt"
	"gptattr/internal/ir"
	"gptattr/internal/ml"
	"gptattr/internal/style"
	"gptattr/internal/stylometry"
)

// benchScale keeps table benches meaningful but minutes-not-hours.
var benchScale = experiments.Scale{
	Authors: 16, Rounds: 5, Trees: 20, TopFeatures: 300, NumStyles: 8, Seed: 1,
}

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite = experiments.NewSuite(benchScale)
	})
	return suite
}

func benchTable(b *testing.B, fn func() (string, error)) {
	b.Helper()
	s := benchSuite(b)
	_ = s
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fn(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableI regenerates Table I (dataset shapes).
func BenchmarkTableI(b *testing.B) { benchTable(b, benchSuite(b).TableI) }

// BenchmarkTableII regenerates Table II (transformed dataset shapes).
func BenchmarkTableII(b *testing.B) { benchTable(b, benchSuite(b).TableII) }

// BenchmarkTableIII regenerates Table III (binary dataset shapes).
func BenchmarkTableIII(b *testing.B) { benchTable(b, benchSuite(b).TableIII) }

// BenchmarkTableIV regenerates Table IV (number of styles).
func BenchmarkTableIV(b *testing.B) { benchTable(b, benchSuite(b).TableIV) }

// BenchmarkTableDiversity regenerates Tables V-VII (style histograms).
func BenchmarkTableDiversity(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, y := range experiments.Years() {
			if _, err := s.TableDiversity(y); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTableVIII regenerates Table VIII (naive 205-author
// attribution; trains 8 forests per year).
func BenchmarkTableVIII(b *testing.B) { benchTable(b, benchSuite(b).TableVIII) }

// BenchmarkTableIX regenerates Table IX (feature-based 205-author
// attribution).
func BenchmarkTableIX(b *testing.B) { benchTable(b, benchSuite(b).TableIX) }

// BenchmarkTableX regenerates Table X (binary classification,
// individual years + combined).
func BenchmarkTableX(b *testing.B) { benchTable(b, benchSuite(b).TableX) }

// BenchmarkFigure2 regenerates Figure 2 (NCT vs CT traces).
func BenchmarkFigure2(b *testing.B) { benchTable(b, benchSuite(b).Figure2) }

// BenchmarkFigure345 regenerates Figures 3-5 (example transformations).
func BenchmarkFigure345(b *testing.B) { benchTable(b, benchSuite(b).Figure345) }

// --- substrate micro-benchmarks ---

func sampleSource(b *testing.B) string {
	b.Helper()
	ch, err := challenge.Get(2017, "C1")
	if err != nil {
		b.Fatal(err)
	}
	return codegen.Render(ch.Prog, style.Random("bench", rand.New(rand.NewSource(1))), 1)
}

// BenchmarkParse measures the fuzzy C++ parser.
func BenchmarkParse(b *testing.B) {
	src := sampleSource(b)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tu := cppast.MustParse(src)
		if tu.Function("main") == nil {
			b.Fatal("no main")
		}
	}
}

// BenchmarkInterpret measures the mini C++ interpreter on a full
// program run.
func BenchmarkInterpret(b *testing.B) {
	ch, err := challenge.Get(2017, "C1")
	if err != nil {
		b.Fatal(err)
	}
	src := sampleSource(b)
	run, err := ir.Synthesize(ch.Prog, 10, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cppinterp.Run(src, run.Input); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGPTTransform measures one simulated-ChatGPT rewrite
// (parse + rename + IO/loop/structure passes + reprint), unverified.
func BenchmarkGPTTransform(b *testing.B) {
	src := sampleSource(b)
	m := gpt.NewModel(gpt.Config{Seed: 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Transform(src, -1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGPTTransformVerified includes behaviour verification.
func BenchmarkGPTTransformVerified(b *testing.B) {
	ch, err := challenge.Get(2017, "C1")
	if err != nil {
		b.Fatal(err)
	}
	src := sampleSource(b)
	run, err := ir.Synthesize(ch.Prog, 3, rand.New(rand.NewSource(4)))
	if err != nil {
		b.Fatal(err)
	}
	m := gpt.NewModel(gpt.Config{Seed: 5})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Transform(src, -1, []string{run.Input}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOracleTrain measures the full oracle pipeline (extraction,
// vectorization, selection, forest) on a small year.
func BenchmarkOracleTrain(b *testing.B) {
	human, _, err := corpus.GenerateYear(corpus.YearConfig{Year: 2017, NumAuthors: 12, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	cfg := attrib.Config{Trees: 16, TopFeatures: 250, Seed: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := attrib.TrainOracle(human, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvadeAttack measures one MCTS evasion attack against a
// small oracle (budget of 10 oracle evaluations).
func BenchmarkEvadeAttack(b *testing.B) {
	human, profiles, err := corpus.GenerateYear(corpus.YearConfig{Year: 2017, NumAuthors: 8, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	oracle, err := attrib.TrainOracle(human, attrib.Config{Trees: 12, TopFeatures: 200, Seed: 10})
	if err != nil {
		b.Fatal(err)
	}
	ch, err := challenge.Get(2018, "C2")
	if err != nil {
		b.Fatal(err)
	}
	src := codegen.Render(ch.Prog, profiles[0], 3)
	lo := arena.NewLocalOracle(oracle)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := arena.Config{Budget: 10, Seed: int64(i + 1)}
		if _, err := arena.Attack(context.Background(), lo, src, arena.Goal{TrueAuthor: "A001"}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestOOB measures forest training with out-of-bag
// estimation.
func BenchmarkForestOOB(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	d := &ml.Dataset{NumClasses: 12}
	for c := 0; c < 12; c++ {
		for s := 0; s < 10; s++ {
			row := make([]float64, 120)
			for j := range row {
				row[j] = float64(c)*0.2 + rng.NormFloat64()
			}
			d.X = append(d.X, row)
			d.Y = append(d.Y, c)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ml.FitForestOOB(d, ml.ForestConfig{NumTrees: 16, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- pipeline concurrency and caching benchmarks ---

// benchCorpus renders a labelled source corpus for pipeline benches.
func benchCorpus(b *testing.B, authors int) *corpus.Corpus {
	b.Helper()
	human, _, err := corpus.GenerateYear(corpus.YearConfig{Year: 2017, NumAuthors: authors, Seed: 21})
	if err != nil {
		b.Fatal(err)
	}
	return human
}

// benchWorkerCounts compares the sequential path against the full
// machine. On a 1-CPU host the two coincide; the sub-benchmark names
// keep results comparable across hosts.
func benchWorkerCounts() []int {
	if p := runtime.GOMAXPROCS(0); p > 1 {
		return []int{1, p}
	}
	return []int{1}
}

// BenchmarkBuildDatasetParallel measures parallel feature extraction,
// vectorization and information-gain reduction at each worker count,
// reporting samples/sec.
func BenchmarkBuildDatasetParallel(b *testing.B) {
	human := benchCorpus(b, 12)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := attrib.OracleDataset(human, nil, attrib.Config{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(human.Samples)*b.N)/b.Elapsed().Seconds(), "samples/sec")
		})
	}
}

// BenchmarkCrossValidateParallel measures fold-parallel cross-validation
// at each worker count, reporting samples/sec (training+test rows
// processed per second across all folds).
func BenchmarkCrossValidateParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	d := &ml.Dataset{NumClasses: 16}
	for c := 0; c < 16; c++ {
		for s := 0; s < 8; s++ {
			row := make([]float64, 150)
			for j := range row {
				row[j] = float64(c)*0.15 + rng.NormFloat64()
			}
			d.X = append(d.X, row)
			d.Y = append(d.Y, c)
		}
	}
	folds, err := ml.StratifiedKFold(d.Y, 4, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ml.CrossValidateForest(d, folds,
					ml.ForestConfig{NumTrees: 16, Seed: 23, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(d.X)*b.N)/b.Elapsed().Seconds(), "samples/sec")
		})
	}
}

// BenchmarkFeatureCache compares dataset builds against a cold cache
// (every extraction misses, then populates) and a warm cache (every
// extraction hits), reporting samples/sec.
func BenchmarkFeatureCache(b *testing.B) {
	human := benchCorpus(b, 12)
	build := func(b *testing.B, cache stylometry.FeatureCache) {
		if _, err := attrib.OracleDataset(human, nil, attrib.Config{Cache: cache}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cache, err := featcache.New(featcache.Options{})
			if err != nil {
				b.Fatal(err)
			}
			build(b, cache)
		}
		b.ReportMetric(float64(len(human.Samples)*b.N)/b.Elapsed().Seconds(), "samples/sec")
	})
	b.Run("warm", func(b *testing.B) {
		cache, err := featcache.New(featcache.Options{})
		if err != nil {
			b.Fatal(err)
		}
		build(b, cache) // prime
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			build(b, cache)
		}
		b.ReportMetric(float64(len(human.Samples)*b.N)/b.Elapsed().Seconds(), "samples/sec")
	})
}

// BenchmarkCorpusGeneration measures rendering one year of authors.
func BenchmarkCorpusGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, _, err := corpus.GenerateYear(corpus.YearConfig{Year: 2018, NumAuthors: 12, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if len(c.Samples) != 96 {
			b.Fatal("bad corpus size")
		}
	}
}
