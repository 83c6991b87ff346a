package stylometry

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"gptattr/internal/fault"
	"gptattr/internal/ml"
)

// PointExtract is the fault-injection point on the per-source
// extraction path (see internal/fault). ExtractSupervised hits it once
// per attempt: injected transient errors and injected panics are
// absorbed by its bounded retry supervisor; non-injected panics are
// contained into per-source errors.
const PointExtract = "stylometry.extract"

// ExtractRetries bounds the attempts ExtractSupervised makes at one
// source: fewer consecutive transient faults than this are absorbed.
// extractBackoff is the sleep before the second attempt (doubling
// after).
const (
	ExtractRetries = 3
	extractBackoff = time.Millisecond
)

// FeatureCache is a pluggable source->Sparse cache consulted before
// extraction (see internal/featcache for the content-addressed
// implementation with an in-memory LRU and an optional on-disk layer).
// Implementations must be safe for concurrent use. Get may share the
// stored vector, since a Sparse is immutable; Put takes any Vector and
// must not retain a mutable one (a Features map is copied).
type FeatureCache interface {
	Get(src string) (*Sparse, bool)
	Put(src string, v Vector)
}

// ExtractConfig controls parallel feature extraction.
type ExtractConfig struct {
	// Workers bounds the extraction worker pool; 0 means GOMAXPROCS.
	Workers int
	// Cache, when non-nil, is consulted before extracting and updated
	// after.
	Cache FeatureCache
}

func (c ExtractConfig) workers(n int) int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ExtractError records which source of a batch failed to extract.
type ExtractError struct {
	Index int
	Err   error
}

func (e *ExtractError) Error() string {
	return fmt.Sprintf("stylometry: source %d: %v", e.Index, e.Err)
}

func (e *ExtractError) Unwrap() error { return e.Err }

// ExtractAll computes features for every source on a bounded worker
// pool, preserving input order. force is the degrade floor: every
// vector is extracted at least that degraded, and levels[i] reports
// each vector's actual level. A source is looked up in cfg.Cache
// first — a hit is a full (level-0) vector whatever the floor — and
// otherwise goes through ExtractSupervised; either way the map view is
// built here, at the package boundary. Every source is attempted,
// so one malformed source never costs its neighbours their features;
// the lowest-index failure is reported as an *ExtractError, and out[i]
// is valid for every other source. Worker scheduling never affects
// content: each slot is written only by the worker that drew its
// index, and a degraded vector's features depend only on its level.
func ExtractAll(sources []string, force DegradeLevel, cfg ExtractConfig) (out []Features, levels []DegradeLevel, err error) {
	out = make([]Features, len(sources))
	levels = make([]DegradeLevel, len(sources))
	errs := make([]error, len(sources))
	ctx := context.Background()
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := cfg.workers(len(sources)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				var sp *Sparse
				hit := false
				if cfg.Cache != nil {
					sp, hit = cfg.Cache.Get(sources[i])
				}
				if !hit {
					sp, levels[i], errs[i] = ExtractSupervised(ctx, sources[i], force, cfg.Cache)
				}
				if sp != nil {
					out[i] = sp.Features()
				}
			}
		}()
	}
	for i := range sources {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return out, levels, &ExtractError{Index: i, Err: err}
		}
	}
	return out, levels, nil
}

// PanicError is a panic contained by ExtractSupervised and converted
// into a per-source error. A panicking source fails alone — with
// provenance — instead of killing the whole run; ExtractAll callers
// see it wrapped in an *ExtractError carrying the source index, the
// attrib layer adds author/challenge provenance, and the serving
// batcher answers it 503.
type PanicError struct {
	// Value is the stringified panic value.
	Value string
	// Stack is the panicking goroutine's stack (empty for injected
	// panics, which have no diagnostic value).
	Stack []byte
	// injected marks fault-injected panics as transient so the retry
	// supervisor absorbs them.
	injected bool
}

// Error describes the contained panic.
func (e *PanicError) Error() string {
	return fmt.Sprintf("stylometry: extraction panicked: %s", e.Value)
}

// Transient reports whether the panic was fault-injected (retryable).
func (e *PanicError) Transient() bool { return e.injected }

// ExtractSupervised is the one supervised per-source extraction:
// budgeted extraction at the forced floor (Scratch.ExtractVec, as in
// ExtractDegraded) snapshotted into a Sparse, with each attempt
// passing PointExtract first. Transient faults — injected
// errors and injected panics — are retried up to ExtractRetries
// attempts with backoff; any panic, injected or real, is contained as
// a *PanicError instead of unwinding the caller's goroutine. A
// transient fault that outlives the budget is returned as is, so
// callers can tell a supervision failure (IsTransient, or a
// *PanicError) from a source that does not extract.
//
// ctx bounds the extraction: a budget that expires mid-extraction
// sheds feature families instead of failing. A full (level-0) vector
// is stored in cache (when non-nil); degraded vectors never are, so a
// brownout never poisons the cache with partial vectors. src is never
// looked up: callers consult the cache first, once.
func ExtractSupervised(ctx context.Context, src string, force DegradeLevel, cache FeatureCache) (sp *Sparse, level DegradeLevel, err error) {
	level = force
	err = fault.Retry(ExtractRetries, extractBackoff, func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				if pv, ok := r.(fault.PanicValue); ok {
					err = &PanicError{Value: pv.String(), injected: true}
					return
				}
				err = &PanicError{Value: fmt.Sprint(r), Stack: debug.Stack()}
			}
		}()
		if err := fault.HitContext(ctx, PointExtract); err != nil {
			return err
		}
		sc := GetScratch()
		defer PutScratch(sc)
		if level, err = sc.ExtractVec(ctx, src, force); err != nil {
			return err
		}
		sp = sc.vec.Sparse()
		return nil
	})
	if err != nil {
		return nil, level, err
	}
	if cache != nil && level == DegradeNone {
		cache.Put(src, sp)
	}
	return sp, level, nil
}

// BuildDatasetWith extracts features for every source (in parallel,
// through the optional cache), learns a vectorizer on them, and
// assembles an ml.Dataset with the given labels. The vocabulary is
// learned from the documents in input order and column names are
// sorted, so the dataset is bit-identical at any worker count.
func BuildDatasetWith(sources []string, labels []int, numClasses int,
	cfg VectorizerConfig, ex ExtractConfig) (*ml.Dataset, *Vectorizer, error) {
	docs, _, err := ExtractAll(sources, DegradeNone, ex)
	if err != nil {
		return nil, nil, err
	}
	v := NewVectorizer(docs, cfg)
	d := &ml.Dataset{
		Y:            labels,
		NumClasses:   numClasses,
		FeatureNames: v.FeatureNames(),
	}
	d.X = make([][]float64, len(docs))
	for i, doc := range docs {
		d.X[i] = v.Vector(doc)
	}
	return d, v, nil
}
