package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"gptattr/internal/stylometry"
)

// blockingExtractor lets a test hold the batch loop inside an
// extraction until released, making queue-occupancy deterministic.
type blockingExtractor struct {
	entered chan int      // batch size, sent on entry
	release chan struct{} // closed/pinged to let the batch finish
	mu      sync.Mutex
	batches []int
}

func newBlockingExtractor() *blockingExtractor {
	return &blockingExtractor{
		entered: make(chan int, 64),
		release: make(chan struct{}, 64),
	}
}

func (b *blockingExtractor) fn(sources []string) ([]stylometry.Features, []error) {
	b.mu.Lock()
	b.batches = append(b.batches, len(sources))
	b.mu.Unlock()
	b.entered <- len(sources)
	<-b.release
	out := make([]stylometry.Features, len(sources))
	errs := make([]error, len(sources))
	for i, s := range sources {
		out[i] = stylometry.Features{"len": float64(len(s))}
	}
	return out, errs
}

// level0 adapts a plain batch extractor to the extractCtxFn hook: it
// ignores the per-job contexts and the brownout floor, and reports
// every answer at level 0.
func level0(fn func(sources []string) ([]stylometry.Features, []error)) func([]context.Context, []string,
	stylometry.DegradeLevel) ([]stylometry.Features, []stylometry.DegradeLevel, []error) {
	return func(_ []context.Context, sources []string,
		_ stylometry.DegradeLevel) ([]stylometry.Features, []stylometry.DegradeLevel, []error) {
		feats, errs := fn(sources)
		return feats, make([]stylometry.DegradeLevel, len(sources)), errs
	}
}

func (b *blockingExtractor) batchSizes() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]int(nil), b.batches...)
}

// TestBatcherCoalesces pins dispatch on arrival: the loop never waits
// for a batch to fill, so jobs coalesce only when they queue up behind
// a running batch.
func TestBatcherCoalesces(t *testing.T) {
	ex := newBlockingExtractor()
	b := NewBatcher(BatchConfig{MaxBatch: 8, QueueDepth: 32, extractCtxFn: level0(ex.fn)})
	defer b.Close()

	results := make(chan error, 6)
	submit := func(n int) {
		for i := 0; i < n; i++ {
			src := fmt.Sprintf("src-%d", i)
			go func() {
				_, _, err := b.ExtractDegraded(context.Background(), src)
				results <- err
			}()
		}
	}
	// The first job runs alone at once and blocks inside extraction.
	submit(1)
	<-ex.entered
	// Five more queue up while the loop is busy; the next batch takes
	// every one already queued, so they form ONE second batch, not five.
	submit(5)
	for deadline := time.Now().Add(2 * time.Second); b.QueueLen() < 5; {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached 5 (at %d)", b.QueueLen())
		}
		time.Sleep(time.Millisecond)
	}
	ex.release <- struct{}{} // finish batch 1
	if got := <-ex.entered; got != 5 {
		t.Errorf("second batch size = %d, want 5", got)
	}
	ex.release <- struct{}{} // finish batch 2
	for i := 0; i < 6; i++ {
		if err := <-results; err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	}
	if sizes := ex.batchSizes(); !reflect.DeepEqual(sizes, []int{1, 5}) {
		t.Errorf("batch sizes = %v, want [1 5]", sizes)
	}
}

// TestBatcherGreedyFormation: with MaxBatch 8 and 20 jobs queued
// behind a running batch, releasing one batch at a time takes what is
// queued up to the cap each time, giving batches of exactly 1, 8, 8, 4.
func TestBatcherGreedyFormation(t *testing.T) {
	const queued = 20
	ex := newBlockingExtractor()
	b := NewBatcher(BatchConfig{MaxBatch: 8, QueueDepth: 32, extractCtxFn: level0(ex.fn)})
	defer b.Close()

	results := make(chan error, 1+queued)
	submit := func(src string) {
		go func() {
			_, _, err := b.ExtractDegraded(context.Background(), src)
			results <- err
		}()
	}
	submit("blocker")
	if got := <-ex.entered; got != 1 {
		t.Fatalf("first batch size = %d, want 1", got)
	}
	for i := 0; i < queued; i++ {
		submit(fmt.Sprintf("src-%d", i))
	}
	for deadline := time.Now().Add(2 * time.Second); b.QueueLen() < queued; {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d (at %d)", queued, b.QueueLen())
		}
		time.Sleep(time.Millisecond)
	}
	ex.release <- struct{}{} // finish the blocker's batch
	for _, want := range []int{8, 8, 4} {
		if got := <-ex.entered; got != want {
			t.Errorf("batch size = %d, want %d", got, want)
		}
		ex.release <- struct{}{}
	}
	for i := 0; i < 1+queued; i++ {
		if err := <-results; err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	}
	if sizes := ex.batchSizes(); !reflect.DeepEqual(sizes, []int{1, 8, 8, 4}) {
		t.Errorf("batch sizes = %v, want [1 8 8 4]", sizes)
	}
}

// TestBatcherSaturationExactlyN is the admission-control contract:
// with queue depth K and K+N outstanding requests beyond the one in
// flight, exactly N are rejected with ErrSaturated, and nothing hangs
// past its deadline.
func TestBatcherSaturationExactlyN(t *testing.T) {
	const K, N = 4, 3
	ex := newBlockingExtractor()
	b := NewBatcher(BatchConfig{MaxBatch: 1, QueueDepth: K, extractCtxFn: level0(ex.fn)})
	defer b.Close()

	type outcome struct{ err error }
	results := make(chan outcome, 1+K+N)
	launch := func(ctx context.Context) {
		go func() {
			_, _, err := b.ExtractDegraded(ctx, "x")
			results <- outcome{err}
		}()
	}

	// One request enters extraction and blocks there (queue stays
	// empty while it runs).
	launch(context.Background())
	<-ex.entered

	// K requests fill the admission queue exactly.
	for i := 0; i < K; i++ {
		launch(context.Background())
	}
	for deadline := time.Now().Add(2 * time.Second); b.QueueLen() < K; {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want %d", b.QueueLen(), K)
		}
		time.Sleep(time.Millisecond)
	}

	// N more must be turned away immediately — each with ErrSaturated,
	// well before its deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	saturated := 0
	for i := 0; i < N; i++ {
		start := time.Now()
		_, _, err := b.ExtractDegraded(ctx, "overflow")
		if !errors.Is(err, ErrSaturated) {
			t.Fatalf("overflow request %d: err = %v, want ErrSaturated", i, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("rejection took %v; admission must not block", d)
		}
		saturated++
	}
	if saturated != N {
		t.Fatalf("saturated = %d, want exactly %d", saturated, N)
	}

	// Release the blocked batches: every admitted request completes.
	ex.release <- struct{}{}
	for i := 0; i < K; i++ {
		<-ex.entered // next queued job enters its own batch
		ex.release <- struct{}{}
	}
	admitted := 0
	for i := 0; i < 1+K; i++ {
		res := <-results
		if res.err != nil {
			t.Errorf("admitted request failed: %v", res.err)
		}
		admitted++
	}
	if admitted != 1+K {
		t.Errorf("admitted completions = %d, want %d", admitted, 1+K)
	}
}

func TestBatcherHonoursDeadlineWhileQueued(t *testing.T) {
	ex := newBlockingExtractor()
	b := NewBatcher(BatchConfig{MaxBatch: 1, QueueDepth: 8, extractCtxFn: level0(ex.fn)})
	defer b.Close()

	// Block the loop.
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
	// The expired job is answered without extraction: only the blocker
	// and (possibly) the timed-out queued job ran.
	ex.release <- struct{}{}
	b.Close()
	for _, n := range ex.batchSizes() {
		if n != 1 {
			t.Errorf("batch of %d, want all batches of 1", n)
		}
	}
}

func TestBatcherCloseDrains(t *testing.T) {
	ex := newBlockingExtractor()
	b := NewBatcher(BatchConfig{MaxBatch: 4, QueueDepth: 16, extractCtxFn: level0(ex.fn)})

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
	for deadline := time.Now().Add(2 * time.Second); b.QueueLen() < 4; {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want 4", b.QueueLen())
		}
		time.Sleep(time.Millisecond)
	}

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
	// Release all in-flight batches; Close must then return and every
	// admitted job must have an answer.
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
// path end to end, including per-source errors inside a mixed batch.
func TestBatcherRealExtraction(t *testing.T) {
	b := NewBatcher(BatchConfig{MaxBatch: 8, QueueDepth: 16, Workers: 2})
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
			t.Errorf("source %d: batched features differ from direct extraction", i)
		}
	}
}
