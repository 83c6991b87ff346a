package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"gptattr/internal/fault"
	"gptattr/internal/stylometry"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrSaturated means the admission queue is full; clients should
	// back off (429 + Retry-After).
	ErrSaturated = errors.New("serve: extraction queue saturated")
	// ErrClosed means the batcher is draining for shutdown (503).
	ErrClosed = errors.New("serve: batcher closed")
	// ErrInternal means the extraction machinery itself failed (a
	// contained batch panic or an unrecovered injected fault); the
	// HTTP layer answers 503 so clients retry elsewhere. The request
	// is answered, never dropped.
	ErrInternal = errors.New("serve: internal extraction failure")
)

// Fault-injection points on the serving path (see internal/fault).
// An admission fault rejects exactly like saturation (429); a batch
// fault delays or fails one whole batch — every job still gets an
// answer.
const (
	PointAdmit = "serve.admit"
	PointBatch = "serve.batch"
)

// batchRetries bounds the retry supervisor around transient batch
// faults (no backoff: jobs are holding their latency budgets).
const batchRetries = 3

// BatchConfig tunes the micro-batching extraction queue.
type BatchConfig struct {
	// MaxBatch bounds how many already-queued requests one batch
	// takes (default 16). The loop never waits for a batch to fill.
	MaxBatch int
	// QueueDepth bounds admitted-but-unbatched requests; a full queue
	// rejects with ErrSaturated (default 256).
	QueueDepth int
	// Workers bounds the per-batch extraction pool, passed through to
	// stylometry.ExtractEachDegraded (0 = GOMAXPROCS).
	Workers int
	// Cache is the shared feature cache consulted before extraction
	// (nil = uncached).
	Cache stylometry.FeatureCache
	// Logf, when non-nil, receives operational log lines (saturation
	// rejections, contained batch panics) carrying request IDs.
	Logf func(format string, args ...any)
	// Brownout, when non-nil, is the adaptive overload controller: the
	// batcher feeds it every job's queue delay and honours its current
	// degrade level as the forced floor for each batch.
	Brownout *Brownout
	// extractCtxFn overrides the batch extraction function: per-job
	// contexts plus the brownout floor in, per-job degrade levels out.
	// Tests use it to observe batch shapes, block batches
	// deterministically, and force degrade levels. Nil means
	// stylometry.ExtractEachDegraded.
	extractCtxFn func(ctxs []context.Context, sources []string,
		force stylometry.DegradeLevel) ([]stylometry.Features, []stylometry.DegradeLevel, []error)
}

func (c BatchConfig) withDefaults() BatchConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.extractCtxFn == nil {
		workers, cache := c.Workers, c.Cache
		c.extractCtxFn = func(ctxs []context.Context, sources []string,
			force stylometry.DegradeLevel) ([]stylometry.Features, []stylometry.DegradeLevel, []error) {
			return stylometry.ExtractEachDegraded(ctxs, sources, force, stylometry.ExtractConfig{
				Workers: workers, Cache: cache,
			})
		}
	}
	return c
}

// job is one admitted extraction request.
type job struct {
	src  string
	id   string // request ID for log traceability ("" outside HTTP)
	ctx  context.Context
	enq  time.Time      // admission time; queue delay feeds the Brownout controller
	done chan jobResult // buffered(1); the batch loop never blocks on it
}

type jobResult struct {
	f     stylometry.Features
	level stylometry.DegradeLevel
	err   error
}

// Batcher coalesces concurrent feature-extraction requests into
// bounded batches that run on the stylometry worker pool. Admission is
// a non-blocking send into a bounded queue, so saturation surfaces
// immediately as ErrSaturated instead of unbounded queueing; request
// deadlines are honoured both while queued and while waiting for a
// batch in flight.
type Batcher struct {
	cfg   BatchConfig
	queue chan *job

	mu     sync.Mutex
	closed bool

	loopDone chan struct{}

	// onBatch, when non-nil, observes each batch size (metrics hook).
	onBatch func(n int)
}

// NewBatcher starts the collector loop.
func NewBatcher(cfg BatchConfig) *Batcher {
	b := &Batcher{
		cfg:      cfg.withDefaults(),
		loopDone: make(chan struct{}),
	}
	b.queue = make(chan *job, b.cfg.QueueDepth)
	go b.loop()
	return b
}

// QueueLen reports the current admission-queue depth (metrics).
func (b *Batcher) QueueLen() int { return len(b.queue) }

// Brownout returns the wired overload controller (nil if none).
func (b *Batcher) Brownout() *Brownout { return b.cfg.Brownout }

// ExtractDegraded admits one source, waits for its batch, and returns
// the features plus the degrade level they were computed at — the
// serving path uses the level to pick the matching fallback oracle and
// to stamp X-Degrade-Level. The level reflects both the request's own
// budget (a deadline that expires mid-extraction sheds the semantic
// family instead of failing) and the brownout floor in force when the
// batch ran. It fails fast with ErrSaturated when the queue is full,
// ErrClosed when draining, or ctx.Err() when the caller's deadline
// expires first.
func (b *Batcher) ExtractDegraded(ctx context.Context, src string) (stylometry.Features, stylometry.DegradeLevel, error) {
	j := &job{src: src, id: RequestIDFrom(ctx), ctx: ctx, enq: time.Now(), done: make(chan jobResult, 1)}
	if err := fault.Hit(PointAdmit); err != nil {
		// An injected admission fault degrades exactly like
		// saturation: the client gets 429 + Retry-After, traceably.
		b.logf("serve: admission fault, rejecting request %s: %v", j.id, err)
		return nil, 0, fmt.Errorf("%w (request %s): %v", ErrSaturated, j.id, err)
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, 0, ErrClosed
	}
	select {
	case b.queue <- j:
		b.mu.Unlock()
	default:
		b.mu.Unlock()
		b.logf("serve: queue saturated (%d/%d), rejecting request %s",
			len(b.queue), cap(b.queue), j.id)
		return nil, 0, ErrSaturated
	}
	select {
	case res := <-j.done:
		return res.f, res.level, res.err
	case <-ctx.Done():
		// The batch may still compute this entry (and warm the cache);
		// the caller just stops waiting.
		return nil, 0, ctx.Err()
	}
}

// Close stops admission and drains: every already-admitted job is
// still extracted and answered before Close returns. Safe to call
// once.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.loopDone
		return
	}
	b.closed = true
	close(b.queue)
	b.mu.Unlock()
	<-b.loopDone
}

// loop collects jobs into batches without ever waiting for one to
// fill: it blocks for the first job, takes whatever else is already
// queued (up to MaxBatch), and runs the batch at once. Jobs that
// arrive while a batch runs queue up and form the next batch, so batch
// size grows only when there is a real queue. One batch runs at a
// time. A closed queue drains to empty and exits.
func (b *Batcher) loop() {
	defer close(b.loopDone)
	for {
		first, ok := <-b.queue
		if !ok {
			return
		}
		batch := []*job{first}
	collect:
		for len(batch) < b.cfg.MaxBatch {
			select {
			case j, ok := <-b.queue:
				if !ok {
					// Draining: run what we have, then exit after the
					// queue is empty (outer receive sees closed).
					break collect
				}
				batch = append(batch, j)
			default:
				break collect
			}
		}
		b.runBatch(batch)
	}
}

// logf emits one operational log line when a logger is configured.
func (b *Batcher) logf(format string, args ...any) {
	if b.cfg.Logf != nil {
		b.cfg.Logf(format, args...)
	}
}

// runBatch extracts one batch and answers every job. Jobs whose
// deadline already passed are answered with their context error
// without paying for extraction. The extraction itself is supervised:
// injected transient batch faults are retried a bounded number of
// times, and a panic — from injection or a real defect in the
// extraction stack — is contained and answered as ErrInternal on
// every job, keeping the collector loop alive. No admitted request is
// ever dropped on the floor.
func (b *Batcher) runBatch(batch []*job) {
	// Every admitted job's queue delay is overload signal — expired
	// jobs most of all — so the controller observes before filtering.
	if b.cfg.Brownout != nil {
		now := time.Now()
		for _, j := range batch {
			b.cfg.Brownout.Observe(now.Sub(j.enq))
		}
	}
	live := batch[:0]
	for _, j := range batch {
		if err := j.ctx.Err(); err != nil {
			j.done <- jobResult{err: err}
			continue
		}
		live = append(live, j)
	}
	if len(live) == 0 {
		return
	}
	if b.onBatch != nil {
		b.onBatch(len(live))
	}
	force := stylometry.DegradeNone
	if b.cfg.Brownout != nil {
		force = b.cfg.Brownout.Level()
	}
	sources := make([]string, len(live))
	ctxs := make([]context.Context, len(live))
	for i, j := range live {
		sources[i] = j.src
		ctxs[i] = j.ctx
	}
	feats, levels, errs, batchErr := b.safeExtract(ctxs, sources, force)
	if batchErr != nil {
		b.logf("serve: batch of %d failed, answering every job with 503: %v (requests: %s)",
			len(live), batchErr, jobIDs(live))
		for _, j := range live {
			j.done <- jobResult{err: fmt.Errorf("%w: %v", ErrInternal, batchErr)}
		}
		return
	}
	for i, j := range live {
		j.done <- jobResult{f: feats[i], level: levels[i], err: errs[i]}
	}
}

// safeExtract runs the batch extraction under retry-and-containment
// supervision. A non-nil batchErr means the whole batch failed.
func (b *Batcher) safeExtract(ctxs []context.Context, sources []string,
	force stylometry.DegradeLevel) (feats []stylometry.Features, levels []stylometry.DegradeLevel, errs []error, batchErr error) {
	batchErr = fault.Retry(batchRetries, 0, func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				if pv, ok := r.(fault.PanicValue); ok {
					// Injected panics are transient: retry.
					err = &fault.InjectedError{Point: pv.Point}
					return
				}
				err = fmt.Errorf("extraction panicked: %v", r)
			}
		}()
		if err := fault.Hit(PointBatch); err != nil {
			return err
		}
		feats, levels, errs = b.cfg.extractCtxFn(ctxs, sources, force)
		return nil
	})
	return feats, levels, errs, batchErr
}

// jobIDs renders a batch's request IDs for log lines.
func jobIDs(jobs []*job) string {
	ids := make([]byte, 0, 16*len(jobs))
	for i, j := range jobs {
		if i > 0 {
			ids = append(ids, ' ')
		}
		if j.id == "" {
			ids = append(ids, '-')
			continue
		}
		ids = append(ids, j.id...)
	}
	return string(ids)
}
