package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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
	// contained panic, or a transient fault that outlived
	// stylometry's retry budget); the HTTP layer answers 503 so
	// clients retry elsewhere. The request is answered, never dropped.
	ErrInternal = errors.New("serve: internal extraction failure")
)

// PointAdmit is the serving path's admission fault point (see
// internal/fault): an injected fault rejects exactly like saturation
// (429). Extraction faults are injected at stylometry.PointExtract,
// inside the one supervisor the workers call.
const PointAdmit = "serve.admit"

// BatchConfig tunes the extraction queue and its workers.
type BatchConfig struct {
	// QueueDepth bounds admitted-but-unstarted requests; a full queue
	// rejects with ErrSaturated (default 256).
	QueueDepth int
	// Workers is the number of long-lived extraction workers, each
	// extracting one queued source at a time (0 = GOMAXPROCS).
	Workers int
	// Cache is the shared feature cache (nil = uncached). It is
	// consulted once per request, at admission: a hit is answered
	// there without queueing, and a worker fills it after a miss.
	Cache stylometry.FeatureCache
	// Logf, when non-nil, receives operational log lines (saturation
	// rejections, contained extraction panics) carrying request IDs.
	Logf func(format string, args ...any)
	// Brownout, when non-nil, is the adaptive overload controller: the
	// workers feed it every job's queue delay and honour its current
	// degrade level as the forced floor for each extraction.
	Brownout *Brownout
	// extractFn overrides the per-source extraction of a cache miss:
	// the job's context plus the brownout floor in, features and
	// degrade level out. Tests use it to block extractions
	// deterministically and force degrade levels. Nil means
	// stylometry.ExtractSupervised on Cache.
	extractFn func(ctx context.Context, src string,
		force stylometry.DegradeLevel) (stylometry.Features, stylometry.DegradeLevel, error)
}

func (c BatchConfig) withDefaults() BatchConfig {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.extractFn == nil {
		cache := c.Cache
		c.extractFn = func(ctx context.Context, src string,
			force stylometry.DegradeLevel) (stylometry.Features, stylometry.DegradeLevel, error) {
			return stylometry.ExtractSupervised(ctx, src, force, cache)
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
	done chan jobResult // buffered(1); a worker never blocks on it
}

type jobResult struct {
	f     stylometry.Features
	level stylometry.DegradeLevel
	err   error
}

// Batcher hands concurrent feature-extraction requests to a fixed pool
// of extraction workers through a bounded queue. Admission is a
// non-blocking send, so saturation surfaces immediately as
// ErrSaturated instead of unbounded queueing; request deadlines are
// honoured both while queued and while extracting. Each worker
// extracts one source at a time, so a slow source holds one worker,
// never the whole queue.
type Batcher struct {
	cfg   BatchConfig
	queue chan *job

	mu     sync.Mutex
	closed bool

	workers sync.WaitGroup

	// onExtract, when non-nil, observes each dispatched extraction
	// (metrics hook).
	onExtract func()
}

// NewBatcher starts the extraction workers.
func NewBatcher(cfg BatchConfig) *Batcher {
	b := &Batcher{cfg: cfg.withDefaults()}
	b.queue = make(chan *job, b.cfg.QueueDepth)
	b.workers.Add(b.cfg.Workers)
	for i := 0; i < b.cfg.Workers; i++ {
		go b.work()
	}
	return b
}

// QueueLen reports the current admission-queue depth (metrics).
func (b *Batcher) QueueLen() int { return len(b.queue) }

// Brownout returns the wired overload controller (nil if none).
func (b *Batcher) Brownout() *Brownout { return b.cfg.Brownout }

// ExtractDegraded admits one source, waits for a worker to extract it,
// and returns the features plus the degrade level they were computed
// at — the serving path uses the level to pick the matching fallback
// oracle and to stamp X-Degrade-Level. The level reflects both the
// request's own budget (a deadline that expires mid-extraction sheds
// the semantic family instead of failing) and the brownout floor in
// force when the extraction started. A featcache hit is answered at
// admission, at level 0, without queueing: it holds no worker, so a
// full queue does not reject it and its (zero) queue delay never
// reaches the Brownout controller. It fails fast with ErrSaturated
// when the queue is full, ErrClosed when draining, or ctx.Err() when
// the caller's deadline expires first.
func (b *Batcher) ExtractDegraded(ctx context.Context, src string) (stylometry.Features, stylometry.DegradeLevel, error) {
	id := RequestIDFrom(ctx)
	if err := fault.Hit(PointAdmit); err != nil {
		// An injected admission fault degrades exactly like
		// saturation: the client gets 429 + Retry-After, traceably.
		b.logf("serve: admission fault, rejecting request %s: %v", id, err)
		return nil, 0, fmt.Errorf("%w (request %s): %v", ErrSaturated, id, err)
	}
	if b.cfg.Cache != nil && !b.isClosed() {
		// The one lookup this request gets: a miss is extracted and
		// stored by a worker without a second Get.
		if f, ok := b.cfg.Cache.Get(src); ok {
			return f, stylometry.DegradeNone, nil
		}
	}
	j := &job{src: src, id: id, ctx: ctx, enq: time.Now(), done: make(chan jobResult, 1)}
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
		// The worker may still compute this entry (and warm the
		// cache); the caller just stops waiting.
		return nil, 0, ctx.Err()
	}
}

// isClosed reports whether Close has stopped admission.
func (b *Batcher) isClosed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.closed
}

// Close stops admission and drains: every already-admitted job is
// still extracted and answered before Close returns.
func (b *Batcher) Close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.queue)
	}
	b.mu.Unlock()
	b.workers.Wait()
}

// work is one extraction worker: it runs queued jobs one at a time
// until the queue is closed and drained.
func (b *Batcher) work() {
	defer b.workers.Done()
	for j := range b.queue {
		b.run(j)
	}
}

// logf emits one operational log line when a logger is configured.
func (b *Batcher) logf(format string, args ...any) {
	if b.cfg.Logf != nil {
		b.cfg.Logf(format, args...)
	}
}

// run extracts one job and answers it. A job whose deadline already
// passed is answered with its context error without paying for
// extraction. Otherwise the job gets exactly one call to the
// supervised extraction (stylometry.ExtractSupervised, which retries
// transient faults and contains panics). Its supervision failures — a
// contained panic, or a transient fault that outlived the retry
// budget — are answered ErrInternal (503), not as a verdict on the
// source; a panic that escapes the extraction function is contained
// here the same way, keeping the worker alive. No admitted request is
// ever dropped on the floor.
func (b *Batcher) run(j *job) {
	// Every admitted job's queue delay is overload signal — expired
	// jobs most of all — so the controller observes before the
	// expiry check.
	force := stylometry.DegradeNone
	if b.cfg.Brownout != nil {
		b.cfg.Brownout.Observe(time.Since(j.enq))
		force = b.cfg.Brownout.Level()
	}
	if err := j.ctx.Err(); err != nil {
		j.done <- jobResult{err: err}
		return
	}
	if b.onExtract != nil {
		b.onExtract()
	}
	res := b.extract(j, force)
	if res.err != nil {
		var pe *stylometry.PanicError
		if errors.As(res.err, &pe) || fault.IsTransient(res.err) {
			id := j.id
			if id == "" {
				id = "-"
			}
			b.logf("serve: extraction failed, answering 503: %v (request %s)", res.err, id)
			res = jobResult{err: fmt.Errorf("%w: %v", ErrInternal, res.err)}
		}
	}
	j.done <- res
}

// extract calls the extraction function once, containing a panic that
// escapes it as a *stylometry.PanicError.
func (b *Batcher) extract(j *job, force stylometry.DegradeLevel) (res jobResult) {
	defer func() {
		if r := recover(); r != nil {
			res = jobResult{err: &stylometry.PanicError{Value: fmt.Sprint(r)}}
		}
	}()
	res.f, res.level, res.err = b.cfg.extractFn(j.ctx, j.src, force)
	return res
}
