package ml

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
)

// ForestConfig controls random-forest training.
type ForestConfig struct {
	// NumTrees is the ensemble size (default 100).
	NumTrees int
	// MaxDepth bounds each tree; 0 means unbounded.
	MaxDepth int
	// MinSamplesLeaf per tree (default 1).
	MinSamplesLeaf int
	// MTry is the per-split feature sample size; 0 means sqrt(d).
	MTry int
	// Seed makes training deterministic. Trees are seeded Seed+i, so
	// results do not depend on scheduling.
	Seed int64
	// Workers bounds build parallelism; 0 means GOMAXPROCS.
	Workers int
}

func (c ForestConfig) numTrees() int {
	if c.NumTrees <= 0 {
		return 100
	}
	return c.NumTrees
}

// resolve computes the effective tree config and worker count.
func (c ForestConfig) resolve(d *Dataset) (tcfg TreeConfig, workers int) {
	mtry := c.MTry
	if mtry <= 0 {
		mtry = int(math.Sqrt(float64(d.NumFeatures())))
		if mtry < 1 {
			mtry = 1
		}
	}
	tcfg = TreeConfig{MaxDepth: c.MaxDepth, MinSamplesLeaf: c.MinSamplesLeaf, MTry: mtry}
	workers = c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n := c.numTrees(); workers > n {
		workers = n
	}
	return tcfg, workers
}

// Forest is a fitted random forest.
type Forest struct {
	trees      []*Tree
	numClasses int

	// flatOnce guards flat, the SoA node layout PredictAll batches on.
	flatOnce sync.Once
	flat     *flatForest
}

// FitForest trains a random forest on d: each tree sees a bootstrap
// sample of the rows and samples MTry features at every split. The
// column-major mirror and per-feature sort are built once and shared by
// all trees; each worker reuses one pre-sorted tree builder, so steady-
// state training allocates only the trees themselves. Construction runs
// on a bounded worker pool and is deterministic for a given seed
// regardless of worker count.
func FitForest(d *Dataset, cfg ForestConfig) (*Forest, error) {
	f, _, err := fitForest(d, cfg, false)
	return f, err
}

// fitForest is the shared trainer behind FitForest and FitForestOOB.
// When oob is true it also tallies out-of-bag votes per sample.
func fitForest(d *Dataset, cfg ForestConfig, oob bool) (*Forest, [][]int32, error) {
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	ctx := newTrainCtx(d)
	nTrees := cfg.numTrees()
	tcfg, workers := cfg.resolve(d)

	f := &Forest{trees: make([]*Tree, nTrees), numClasses: d.NumClasses}
	n := len(d.X)

	var oobVotes [][]int32
	var oobMu sync.Mutex
	if oob {
		oobVotes = make([][]int32, n)
		for i := range oobVotes {
			oobVotes[i] = make([]int32, d.NumClasses)
		}
	}

	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := newTreeBuilder(ctx)
			boot := make([]int, n)
			var inBag []bool
			if oob {
				inBag = make([]bool, n)
			}
			for ti := range jobs {
				rng := rand.New(rand.NewSource(cfg.Seed + int64(ti)*2654435761))
				if oob {
					for i := range inBag {
						inBag[i] = false
					}
				}
				for i := range boot {
					boot[i] = rng.Intn(n)
					if oob {
						inBag[boot[i]] = true
					}
				}
				tree := b.fit(boot, tcfg, rng)
				f.trees[ti] = tree
				if oob {
					oobMu.Lock()
					for i := 0; i < n; i++ {
						if !inBag[i] {
							oobVotes[i][tree.Predict(d.X[i])]++
						}
					}
					oobMu.Unlock()
				}
			}
		}()
	}
	for ti := 0; ti < nTrees; ti++ {
		jobs <- ti
	}
	close(jobs)
	wg.Wait()
	return f, oobVotes, nil
}

// PredictProbaInto writes vote fractions per class into out (len must
// be NumClasses) without allocating: votes accumulate directly in out
// and are scaled in place.
func (f *Forest) PredictProbaInto(x []float64, out []float64) {
	for i := range out {
		out[i] = 0
	}
	for _, t := range f.trees {
		out[t.Predict(x)]++
	}
	inv := 1 / float64(len(f.trees))
	for i := range out {
		out[i] *= inv
	}
}
