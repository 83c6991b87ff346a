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

// PointExtract is the fault-injection point on the per-sample
// extraction path (see internal/fault). Injected transient errors and
// injected panics are absorbed by the bounded retry supervisor;
// non-injected panics are contained into per-sample errors.
const PointExtract = "stylometry.extract"

// extractRetries and extractBackoff bound the retry-with-backoff
// supervisor around transient extraction faults.
const (
	extractRetries = 3
	extractBackoff = time.Millisecond
)

// FeatureCache is a pluggable source->Features cache consulted before
// extraction (see internal/featcache for the content-addressed
// implementation with an in-memory LRU and an optional on-disk layer).
// Implementations must be safe for concurrent use and must return
// feature maps the caller may treat as read-only.
type FeatureCache interface {
	Get(src string) (Features, bool)
	Put(src string, f Features)
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
// pool, preserving input order. Results are deterministic for any
// worker count: each output slot is written only by the worker that
// drew its index. The first failing source is reported as an
// *ExtractError.
func ExtractAll(sources []string, cfg ExtractConfig) ([]Features, error) {
	out, _, errs := ExtractEachDegraded(sources, DegradeNone, cfg)
	for i, err := range errs {
		if err != nil {
			return nil, &ExtractError{Index: i, Err: err}
		}
	}
	return out, nil
}

// ExtractEachDegraded is the batch entry point behind ExtractAll: it
// computes features for every source on the same bounded worker pool
// but reports per-source errors instead of failing the whole run, so
// one malformed source never costs its neighbours their answers.
// out[i] is valid iff errs[i] is nil. force is the degrade floor:
// every vector is extracted at least that degraded, and levels[i]
// reports each vector's actual level. Each source goes through
// ExtractCached. Worker scheduling never affects content: each slot is
// written only by the worker that drew its index, and a degraded
// vector's features depend only on its level.
func ExtractEachDegraded(sources []string, force DegradeLevel,
	cfg ExtractConfig) (out []Features, levels []DegradeLevel, errs []error) {
	out = make([]Features, len(sources))
	levels = make([]DegradeLevel, len(sources))
	errs = make([]error, len(sources))
	ctx := context.Background()
	workers := cfg.workers(len(sources))
	if workers == 1 {
		for i, src := range sources {
			out[i], levels[i], errs[i] = ExtractCached(ctx, src, force, cfg.Cache)
		}
		return out, levels, errs
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i], levels[i], errs[i] = ExtractCached(ctx, sources[i], force, cfg.Cache)
			}
		}()
	}
	for i := range sources {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out, levels, errs
}

// PanicError is a panic contained by the extraction worker pool and
// converted into a per-sample error. A panicking sample fails alone —
// with provenance — instead of killing the whole run; ExtractAll
// callers see it wrapped in an *ExtractError carrying the sample
// index, and the attrib layer adds author/challenge provenance.
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

// safeExtract runs one extraction with panic containment: a panic —
// injected or real — becomes an error instead of unwinding the worker
// goroutine and killing the process.
func safeExtract(ctx context.Context, src string, force DegradeLevel) (f Features, level DegradeLevel, err error) {
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
		return nil, force, err
	}
	return ExtractDegraded(ctx, src, force)
}

// ExtractCached is the per-source serving path: cache lookup, then
// supervised budgeted extraction (transient faults retried, panics
// contained as *PanicError). ctx bounds the extraction: a budget that
// expires mid-extraction sheds feature families instead of failing. A
// cache hit is always a full (level-0) vector regardless of the forced
// floor — the cached work is already paid for, so the cache absorbs
// degradation; conversely only full vectors are ever cached, so a
// brownout never poisons the cache with partial vectors.
func ExtractCached(ctx context.Context, src string, force DegradeLevel, cache FeatureCache) (Features, DegradeLevel, error) {
	if cache != nil {
		if f, ok := cache.Get(src); ok {
			return f, DegradeNone, nil
		}
	}
	return ExtractAndCache(ctx, src, force, cache)
}

// ExtractAndCache is ExtractCached after a miss: supervised budgeted
// extraction, then a full (level-0) vector is stored in cache (when
// non-nil). It never looks src up, so a caller that already consulted
// the cache — the serving batcher answers hits at admission — keeps
// the cache's hit and miss counts at one lookup per request.
func ExtractAndCache(ctx context.Context, src string, force DegradeLevel, cache FeatureCache) (Features, DegradeLevel, error) {
	var f Features
	level := force
	err := fault.Retry(extractRetries, extractBackoff, func() error {
		var rerr error
		f, level, rerr = safeExtract(ctx, src, force)
		return rerr
	})
	if err != nil {
		return nil, level, err
	}
	if cache != nil && level == DegradeNone {
		cache.Put(src, f)
	}
	return f, level, nil
}

// BuildDatasetWith extracts features for every source (in parallel,
// through the optional cache), learns a vectorizer on them, and
// assembles an ml.Dataset with the given labels. The vocabulary is
// learned from the documents in input order and column names are
// sorted, so the dataset is bit-identical at any worker count.
func BuildDatasetWith(sources []string, labels []int, numClasses int,
	cfg VectorizerConfig, ex ExtractConfig) (*ml.Dataset, *Vectorizer, error) {
	docs, err := ExtractAll(sources, ex)
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
