package serve

import (
	"context"
	"fmt"
	"testing"
	"time"

	"gptattr/internal/stylometry"
)

// brownoutHarness drives a Brownout with a manual clock: tick advances
// time past one decision window and feeds the next window's first
// sample, so each call yields at most one level decision.
type brownoutHarness struct {
	b   *Brownout
	t   time.Time
	log []string
}

func newBrownoutHarness(target, window time.Duration) *brownoutHarness {
	h := &brownoutHarness{t: time.Unix(1700000000, 0)}
	h.b = NewBrownout(BrownoutConfig{
		Target: target,
		Window: window,
		Logf:   func(format string, args ...any) { h.log = append(h.log, fmt.Sprintf(format, args...)) },
		now:    func() time.Time { return h.t },
	})
	return h
}

// window feeds the given queue-delay samples as one decision window,
// then advances the clock so the NEXT Observe call closes it out. The
// closing sample is the first of the following window.
func (h *brownoutHarness) window(delays ...time.Duration) {
	for _, d := range delays {
		h.b.Observe(d)
	}
	h.t = h.t.Add(h.b.cfg.Window + time.Millisecond)
}

func TestBrownoutStepsUpOnStandingQueue(t *testing.T) {
	h := newBrownoutHarness(25*time.Millisecond, 100*time.Millisecond)

	// Every sample in the window is over target: a standing queue.
	h.window(40*time.Millisecond, 60*time.Millisecond, 35*time.Millisecond)
	h.window(40 * time.Millisecond) // closes window 1, decides
	if got := h.b.Level(); got != stylometry.DegradeNoSemantic {
		t.Fatalf("level %v after one bad window, want %v", got, stylometry.DegradeNoSemantic)
	}
	if h.b.StepsUp() != 1 {
		t.Fatalf("StepsUp %d, want 1", h.b.StepsUp())
	}
	if len(h.log) != 1 {
		t.Fatalf("transition log %v, want one step-up line", h.log)
	}
}

func TestBrownoutMinFiltersBursts(t *testing.T) {
	h := newBrownoutHarness(25*time.Millisecond, 100*time.Millisecond)

	// One huge burst delay but the window minimum stays under target:
	// CoDel's min-tracking must see through the burst and hold level 0.
	h.window(300*time.Millisecond, 5*time.Millisecond, 200*time.Millisecond)
	h.window(5 * time.Millisecond)
	if got := h.b.Level(); got != stylometry.DegradeNone {
		t.Fatalf("level %v after a bursty-but-healthy window, want 0", got)
	}
	if h.b.StepsUp() != 0 {
		t.Fatalf("StepsUp %d, want 0 (burst misread as standing queue)", h.b.StepsUp())
	}
}

func TestBrownoutMonotoneSingleStepsAndCap(t *testing.T) {
	h := newBrownoutHarness(25*time.Millisecond, 100*time.Millisecond)

	// Sustained overload: the level must walk up exactly one step per
	// window — never jump — and stop at the ladder cap.
	last := stylometry.DegradeNone
	for i := 0; i < 6; i++ {
		h.window(500 * time.Millisecond)
		h.window(500 * time.Millisecond) // close + decide, still overloaded
		cur := h.b.Level()
		if cur != last && cur != last+1 {
			t.Fatalf("window %d: level jumped %v -> %v (transitions must be single steps)", i, last, cur)
		}
		last = cur
	}
	if last != stylometry.MaxDegrade {
		t.Fatalf("level %v under sustained overload, want cap %v", last, stylometry.MaxDegrade)
	}
	if h.b.StepsUp() != uint64(stylometry.MaxDegrade) {
		t.Fatalf("StepsUp %d, want %d (capped)", h.b.StepsUp(), stylometry.MaxDegrade)
	}
}

func TestBrownoutRecoversOnClearedQueue(t *testing.T) {
	h := newBrownoutHarness(25*time.Millisecond, 100*time.Millisecond)
	for i := 0; i < 2*stylometry.DegradeLevels; i++ {
		h.window(500 * time.Millisecond)
	}
	if h.b.Level() != stylometry.MaxDegrade {
		t.Fatalf("setup: level %v, want cap", h.b.Level())
	}

	// Delay between Target/2 and Target: neither overload nor clearly
	// recovered — the controller must hold (hysteresis band).
	h.window(20 * time.Millisecond)
	h.window(20 * time.Millisecond)
	if got := h.b.Level(); got != stylometry.MaxDegrade {
		t.Fatalf("level %v inside the hysteresis band, want hold at %v", got, stylometry.MaxDegrade)
	}

	// Minimum clears Target/2: walk back down one step per window.
	last := h.b.Level()
	for i := 0; i < 6 && h.b.Level() > stylometry.DegradeNone; i++ {
		h.window(2 * time.Millisecond)
		cur := h.b.Level()
		if cur != last && cur != last-1 {
			t.Fatalf("recovery jumped %v -> %v (transitions must be single steps)", last, cur)
		}
		last = cur
	}
	if got := h.b.Level(); got != stylometry.DegradeNone {
		t.Fatalf("level %v after recovery, want 0", got)
	}
	if h.b.StepsDown() != uint64(stylometry.MaxDegrade) {
		t.Fatalf("StepsDown %d, want %d", h.b.StepsDown(), stylometry.MaxDegrade)
	}
}

// TestBrownoutForcesBatchLevel pins the batcher integration: with the
// controller already browned out, every extraction runs at the forced
// floor and the job reports it.
func TestBrownoutForcesBatchLevel(t *testing.T) {
	h := newBrownoutHarness(25*time.Millisecond, 100*time.Millisecond)
	h.window(500 * time.Millisecond)
	// Closing the overloaded window steps up to 1 and starts a healthy
	// window, so the job's own Observe below cannot trigger another
	// decision mid-test.
	h.b.Observe(2 * time.Millisecond)
	if h.b.Level() != stylometry.DegradeNoSemantic {
		t.Fatalf("setup: level %v, want 1", h.b.Level())
	}

	var sawForce stylometry.DegradeLevel
	b := NewBatcher(BatchConfig{
		Workers: 1, QueueDepth: 16,
		Brownout: h.b,
		extractFn: func(_ context.Context, _ string,
			force stylometry.DegradeLevel) (*stylometry.Sparse, stylometry.DegradeLevel, error) {
			sawForce = force
			return stylometry.Features{"x": 1}.Sparse(), force, nil
		},
	})
	defer b.Close()

	_, lvl, err := b.ExtractDegraded(context.Background(), "int main() { return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	if sawForce != stylometry.DegradeNoSemantic {
		t.Fatalf("extraction ran with force %v, want brownout floor %v", sawForce, stylometry.DegradeNoSemantic)
	}
	if lvl != stylometry.DegradeNoSemantic {
		t.Fatalf("job answered level %v, want %v", lvl, stylometry.DegradeNoSemantic)
	}
}
