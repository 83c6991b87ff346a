package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"gptattr/internal/fault"
	"gptattr/internal/stylometry"
)

// blockingExtractor lets a test hold extraction workers inside an
// extraction until released, making queue occupancy deterministic.
// Sources listed in pass skip the block and return at once.
type blockingExtractor struct {
	entered   chan string   // source, sent on entry
	release   chan struct{} // pinged to let one blocked extraction finish
	pass      map[string]bool
	mu        sync.Mutex
	extracted []string
}

func newBlockingExtractor(pass ...string) *blockingExtractor {
	b := &blockingExtractor{
		entered: make(chan string, 64),
		release: make(chan struct{}, 64),
		pass:    make(map[string]bool),
	}
	for _, src := range pass {
		b.pass[src] = true
	}
	return b
}

func (b *blockingExtractor) fn(src string) (stylometry.Features, error) {
	b.mu.Lock()
	b.extracted = append(b.extracted, src)
	b.mu.Unlock()
	if !b.pass[src] {
		b.entered <- src
		<-b.release
	}
	return stylometry.Features{"len": float64(len(src))}, nil
}

// level0 adapts a plain per-source extractor to the extractFn hook: it
// ignores the job's context and the brownout floor, and reports every
// answer at level 0.
func level0(fn func(src string) (stylometry.Features, error)) func(context.Context, string,
	stylometry.DegradeLevel) (stylometry.Features, stylometry.DegradeLevel, error) {
	return func(_ context.Context, src string, _ stylometry.DegradeLevel) (stylometry.Features, stylometry.DegradeLevel, error) {
		f, err := fn(src)
		return f, stylometry.DegradeNone, err
	}
}

func (b *blockingExtractor) sources() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.extracted...)
}

// waitQueueLen polls until the batcher's admission queue holds n jobs.
func waitQueueLen(t *testing.T, b *Batcher, n int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); b.QueueLen() < n; {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want %d", b.QueueLen(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatcherSaturationExactlyN is the admission-control contract:
// with both of two workers blocked inside extraction, queue depth K,
// and K+N further requests, exactly N are rejected with ErrSaturated,
// and nothing hangs past its deadline. Both blocked extractions
// entering at once also pins that W workers run concurrently.
func TestBatcherSaturationExactlyN(t *testing.T) {
	const W, K, N = 2, 4, 3
	ex := newBlockingExtractor()
	b := NewBatcher(BatchConfig{Workers: W, QueueDepth: K, extractFn: level0(ex.fn)})
	defer b.Close()

	results := make(chan error, W+K+N)
	launch := func() {
		go func() {
			_, _, err := b.ExtractDegraded(context.Background(), "x")
			results <- err
		}()
	}

	// W requests enter extraction and block there, one per worker
	// (the queue stays empty while they run).
	for i := 0; i < W; i++ {
		launch()
	}
	for i := 0; i < W; i++ {
		select {
		case <-ex.entered:
		case <-time.After(2 * time.Second):
			t.Fatalf("only %d of %d workers entered extraction", i, W)
		}
	}

	// K requests fill the admission queue exactly.
	for i := 0; i < K; i++ {
		launch()
	}
	waitQueueLen(t, b, K)

	// N more must be turned away immediately — each with ErrSaturated,
	// well before its deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < N; i++ {
		start := time.Now()
		_, _, err := b.ExtractDegraded(ctx, "overflow")
		if !errors.Is(err, ErrSaturated) {
			t.Fatalf("overflow request %d: err = %v, want ErrSaturated", i, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("rejection took %v; admission must not block", d)
		}
	}

	// Release every extraction: every admitted request completes.
	for i := 0; i < W+K; i++ {
		ex.release <- struct{}{}
	}
	for i := 0; i < W+K; i++ {
		if err := <-results; err != nil {
			t.Errorf("admitted request failed: %v", err)
		}
	}
	if got := len(ex.sources()); got != W+K {
		t.Errorf("extractions = %d, want %d (overflow must never reach a worker)", got, W+K)
	}
}

// TestBatcherSlowSourceHoldsOneWorker pins head-of-line isolation: with
// two workers and one extraction blocked, another request still
// completes well inside its deadline on the free worker.
func TestBatcherSlowSourceHoldsOneWorker(t *testing.T) {
	ex := newBlockingExtractor("fast")
	b := NewBatcher(BatchConfig{Workers: 2, QueueDepth: 8, extractFn: level0(ex.fn)})
	defer b.Close()

	slow := make(chan error, 1)
	go func() {
		_, _, err := b.ExtractDegraded(context.Background(), "slow")
		slow <- err
	}()
	<-ex.entered

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	f, _, err := b.ExtractDegraded(ctx, "fast")
	if err != nil {
		t.Fatalf("request behind a blocked extraction: %v", err)
	}
	if f["len"] != float64(len("fast")) {
		t.Fatalf("features %v, want len %d", f, len("fast"))
	}
	ex.release <- struct{}{}
	if err := <-slow; err != nil {
		t.Fatalf("slow request: %v", err)
	}
}

func TestBatcherHonoursDeadlineWhileQueued(t *testing.T) {
	ex := newBlockingExtractor()
	b := NewBatcher(BatchConfig{Workers: 1, QueueDepth: 8, extractFn: level0(ex.fn)})
	defer b.Close()

	// Block the only worker.
	go b.ExtractDegraded(context.Background(), "blocker")
	<-ex.entered

	// A queued request whose deadline passes must return promptly with
	// the context error, not wait for the blocker.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := b.ExtractDegraded(ctx, "queued")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("deadline return took %v", d)
	}
	// An already-expired context never reaches extraction.
	expired, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, _, err := b.ExtractDegraded(expired, "expired"); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired ctx: err = %v", err)
	}
	ex.release <- struct{}{}
	b.Close()
	// Both expired jobs are answered without extraction: only the
	// blocker ran.
	if got := ex.sources(); !reflect.DeepEqual(got, []string{"blocker"}) {
		t.Errorf("extracted %q, want only the blocker", got)
	}
}

func TestBatcherCloseDrains(t *testing.T) {
	ex := newBlockingExtractor()
	b := NewBatcher(BatchConfig{Workers: 1, QueueDepth: 16, extractFn: level0(ex.fn)})

	results := make(chan error, 5)
	go func() {
		_, _, err := b.ExtractDegraded(context.Background(), "first")
		results <- err
	}()
	<-ex.entered
	for i := 0; i < 4; i++ {
		go func() {
			_, _, err := b.ExtractDegraded(context.Background(), "queued")
			results <- err
		}()
	}
	waitQueueLen(t, b, 4)

	closed := make(chan struct{})
	go func() { b.Close(); close(closed) }()
	// New work is refused while draining. A probe submitted before
	// Close wins the race gets admitted — give it a tiny deadline so
	// it cannot block the test, and keep probing until ErrClosed.
	for deadline := time.Now().Add(2 * time.Second); ; {
		probeCtx, probeCancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		_, _, err := b.ExtractDegraded(probeCtx, "late")
		probeCancel()
		if errors.Is(err, ErrClosed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Extract never returned ErrClosed during drain")
		}
		time.Sleep(time.Millisecond)
	}
	// Release every in-flight extraction; Close must then return and
	// every admitted job must have an answer.
	go func() {
		for range ex.entered {
			ex.release <- struct{}{}
		}
	}()
	ex.release <- struct{}{}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not drain")
	}
	for i := 0; i < 5; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Errorf("drained job %d: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("admitted job unanswered after Close")
		}
	}
}

// TestBatcherRealExtraction exercises the default stylometry-backed
// path end to end, including a per-source error among concurrent
// requests.
func TestBatcherRealExtraction(t *testing.T) {
	b := NewBatcher(BatchConfig{QueueDepth: 16, Workers: 2})
	defer b.Close()

	good := sampleSource(t, 0)
	want, err := stylometry.Extract(good)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 6)
	feats := make([]stylometry.Features, 6)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := good
			if i == 3 {
				src = "#this is not C++ at all \x00\x01"
			}
			feats[i], _, errs[i] = b.ExtractDegraded(context.Background(), src)
		}(i)
	}
	wg.Wait()
	for i := 0; i < 6; i++ {
		if i == 3 {
			continue
		}
		if errs[i] != nil {
			t.Errorf("source %d: %v", i, errs[i])
			continue
		}
		if !reflect.DeepEqual(feats[i], want) {
			t.Errorf("source %d: served features differ from direct extraction", i)
		}
	}
}

// countingCache is an in-memory FeatureCache that counts lookups.
type countingCache struct {
	mu   sync.Mutex
	m    map[string]stylometry.Features
	gets int
}

func (c *countingCache) Get(src string) (stylometry.Features, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets++
	f, ok := c.m[src]
	return f, ok
}

func (c *countingCache) Put(src string, f stylometry.Features) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[src] = f
}

// TestBatcherCacheHitAnsweredAtAdmission pins admission-time cache
// hits: with the only worker blocked and the queue full, a cached
// source is still answered at level 0 (it never queues), an uncached
// one is rejected with ErrSaturated, an armed serve.admit fault
// rejects even a hit, and a closed batcher answers ErrClosed before
// looking anything up. The cache sees one lookup per admitted request.
func TestBatcherCacheHitAnsweredAtAdmission(t *testing.T) {
	defer fault.Disable()
	const K = 2
	cached := stylometry.Features{"len": 6}
	cache := &countingCache{m: map[string]stylometry.Features{"cached": cached}}
	ex := newBlockingExtractor()
	b := NewBatcher(BatchConfig{Workers: 1, QueueDepth: K, Cache: cache, extractFn: level0(ex.fn)})

	results := make(chan error, 1+K)
	launch := func(src string) {
		go func() {
			_, _, err := b.ExtractDegraded(context.Background(), src)
			results <- err
		}()
	}
	launch("blocker")
	<-ex.entered
	for i := 0; i < K; i++ {
		launch(fmt.Sprintf("queued-%d", i))
	}
	waitQueueLen(t, b, K)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	f, lvl, err := b.ExtractDegraded(ctx, "cached")
	if err != nil || lvl != stylometry.DegradeNone || !reflect.DeepEqual(f, cached) {
		t.Fatalf("cached source under saturation: %v at level %v, err %v; want the cached vector at level 0", f, lvl, err)
	}
	if _, _, err := b.ExtractDegraded(ctx, "uncached"); !errors.Is(err, ErrSaturated) {
		t.Fatalf("uncached source under saturation: err %v, want ErrSaturated", err)
	}
	fault.Enable(1)
	fault.Set(PointAdmit, fault.Policy{Kind: fault.KindError, Limit: 1})
	if _, _, err := b.ExtractDegraded(ctx, "cached"); !errors.Is(err, ErrSaturated) {
		t.Fatalf("cached source with serve.admit armed: err %v, want ErrSaturated", err)
	}
	fault.Disable()

	for i := 0; i < 1+K; i++ {
		ex.release <- struct{}{}
	}
	for i := 0; i < 1+K; i++ {
		if err := <-results; err != nil {
			t.Errorf("admitted request failed: %v", err)
		}
	}
	b.Close()
	if _, _, err := b.ExtractDegraded(ctx, "cached"); !errors.Is(err, ErrClosed) {
		t.Errorf("cached source after Close: err %v, want ErrClosed", err)
	}
	for _, src := range ex.sources() {
		if src == "cached" {
			t.Error("a cache hit reached an extraction worker")
		}
	}
	// blocker, two queued, cached, uncached: the fault-rejected and
	// post-Close requests never reach the cache.
	if cache.gets != 3+K {
		t.Errorf("cache lookups = %d, want %d (one per request that passed admission)", cache.gets, 3+K)
	}
}
