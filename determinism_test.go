// Determinism harness: the parallel experiment pipeline must produce
// bit-identical outputs at any worker count, with or without the
// feature cache. Every test here runs the same computation for
// Workers ∈ {1, 2, GOMAXPROCS} with a fixed seed and asserts exact
// equality — feature-name ordering, fold assignment, per-fold
// predictions, and rendered table text included.
package gptattr

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"gptattr/internal/corpus"
	"gptattr/internal/experiments"
	"gptattr/internal/featcache"
	"gptattr/internal/ml"
	"gptattr/internal/stylometry"
)

// workerCounts is the table every determinism test runs over.
func workerCounts() []int {
	counts := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 2 {
		counts = append(counts, p)
	}
	return counts
}

// determinismCorpus renders a small labelled corpus once per test run.
func determinismCorpus(t *testing.T) ([]string, []int, int) {
	t.Helper()
	human, _, err := corpus.GenerateYear(corpus.YearConfig{Year: 2017, NumAuthors: 6, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	authors := human.Authors()
	index := make(map[string]int, len(authors))
	for i, a := range authors {
		index[a] = i
	}
	sources := make([]string, len(human.Samples))
	labels := make([]int, len(human.Samples))
	for i, s := range human.Samples {
		sources[i] = s.Source
		labels[i] = index[s.Author]
	}
	return sources, labels, len(authors)
}

// TestBuildDatasetWorkersDeterministic locks down parallel feature
// extraction: identical datasets (feature names, rows, labels) at any
// worker count, with and without a cache, cold and warm.
func TestBuildDatasetWorkersDeterministic(t *testing.T) {
	sources, labels, classes := determinismCorpus(t)
	vcfg := stylometry.VectorizerConfig{MinDocFreq: 2}

	ref, _, err := stylometry.BuildDatasetWith(sources, labels, classes, vcfg,
		stylometry.ExtractConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.FeatureNames) == 0 || len(ref.X) != len(sources) {
		t.Fatalf("degenerate reference dataset: %d features, %d rows", len(ref.FeatureNames), len(ref.X))
	}

	cache, err := featcache.New(featcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		cache stylometry.FeatureCache
	}{
		{"nocache", nil},
		{"cache-cold", cache},
		{"cache-warm", cache},
	}
	for _, tc := range cases {
		for _, w := range workerCounts() {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, w), func(t *testing.T) {
				d, _, err := stylometry.BuildDatasetWith(sources, labels, classes, vcfg,
					stylometry.ExtractConfig{Workers: w, Cache: tc.cache})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(d.FeatureNames, ref.FeatureNames) {
					t.Error("feature-name ordering differs from sequential reference")
				}
				if !reflect.DeepEqual(d.X, ref.X) {
					t.Error("feature rows differ from sequential reference")
				}
				if !reflect.DeepEqual(d.Y, ref.Y) {
					t.Error("labels differ from sequential reference")
				}
			})
		}
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Error("warm cache runs never hit the cache")
	}
}

// TestCrossValidatePipelineWorkersDeterministic locks down the full
// dataset -> feature selection -> stratified folds -> fold-parallel CV
// path: identical fold assignment, predictions, and accuracies at any
// worker count.
func TestCrossValidatePipelineWorkersDeterministic(t *testing.T) {
	sources, labels, classes := determinismCorpus(t)
	d, _, err := stylometry.BuildDatasetWith(sources, labels, classes,
		stylometry.VectorizerConfig{MinDocFreq: 2}, stylometry.ExtractConfig{})
	if err != nil {
		t.Fatal(err)
	}
	reduced, _ := ml.ReduceByInformationGain(d, 150, 10)
	folds, err := ml.StratifiedKFold(reduced.Y, 4, nil)
	if err != nil {
		t.Fatal(err)
	}

	var ref []ml.FoldResult
	var refFolds []ml.Fold
	for _, w := range workerCounts() {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			// Fold assignment must not depend on prior runs or workers.
			again, err := ml.StratifiedKFold(reduced.Y, 4, nil)
			if err != nil {
				t.Fatal(err)
			}
			if refFolds == nil {
				refFolds = again
			} else if !reflect.DeepEqual(again, refFolds) {
				t.Error("fold assignment not deterministic")
			}
			results, err := ml.CrossValidateForest(reduced, folds,
				ml.ForestConfig{NumTrees: 12, Seed: 5, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = results
				return
			}
			if !reflect.DeepEqual(results, ref) {
				t.Error("cross-validation results differ across worker counts")
			}
		})
	}
}

// determinismScale keeps full-suite runs to a few seconds.
var determinismScale = experiments.Scale{
	Authors: 6, Rounds: 2, Trees: 8, TopFeatures: 120, NumStyles: 4, Seed: 1,
}

// suiteOutputs runs the experiment entries that exercise the whole
// pipeline (year build, oracle, attribution CV, binary CV) and returns
// their rendered text.
func suiteOutputs(t *testing.T, s *experiments.Suite) []string {
	t.Helper()
	var out []string
	for _, fn := range []func() (string, error){s.TableIV, s.TableVIII, s.TableX} {
		text, err := fn()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, text)
	}
	return out
}

// TestExperimentsSuiteWorkersDeterministic locks down end-to-end
// experiment runs: the rendered tables must be byte-identical at any
// worker count and with the feature cache installed.
func TestExperimentsSuiteWorkersDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite determinism run is not short")
	}
	var ref []string
	run := func(name string, s *experiments.Suite) {
		t.Run(name, func(t *testing.T) {
			got := suiteOutputs(t, s)
			if ref == nil {
				ref = got
				return
			}
			if !reflect.DeepEqual(got, ref) {
				for i := range got {
					if got[i] != ref[i] {
						t.Errorf("output %d differs:\n--- got ---\n%s\n--- want ---\n%s", i, got[i], ref[i])
					}
				}
			}
		})
	}
	for _, w := range workerCounts() {
		scale := determinismScale
		scale.Workers = w
		run(fmt.Sprintf("workers=%d", w), experiments.NewSuite(scale))
	}
	// Cached suite (shared across two runs: cold then warm) must match.
	cache, err := featcache.New(featcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for pass, name := range []string{"cache-cold", "cache-warm"} {
		scale := determinismScale
		scale.Workers = 2
		s := experiments.NewSuite(scale)
		s.UseCache(cache)
		run(name, s)
		if pass == 1 {
			if st := cache.Stats(); st.Hits == 0 {
				t.Error("warm cached suite never hit the cache")
			}
		}
	}
}
