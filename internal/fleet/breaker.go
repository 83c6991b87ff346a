package fleet

import (
	"sync"
	"time"
)

// BreakerState is the circuit-breaker position for one replica.
type BreakerState int32

const (
	// BreakerClosed passes traffic and watches the rolling outcome
	// window.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects dispatches until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits a bounded number of probe requests; their
	// outcomes decide between closing and reopening.
	BreakerHalfOpen
)

// String renders the state for status pages and logs.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerConfig tunes one replica's circuit breaker.
type BreakerConfig struct {
	// Window is the rolling outcome window size (default 20).
	Window int
	// MinSamples is how many outcomes the window needs before the
	// failure rate is trusted (default 10) — a single early failure
	// must not open the breaker.
	MinSamples int
	// FailRate opens the breaker when the windowed failure fraction
	// reaches it (default 0.5).
	FailRate float64
	// SlowAfter, when positive, counts a successful dispatch slower
	// than this as a failure — a replica in a latency storm is as
	// useless as a dead one (0 disables latency accounting).
	SlowAfter time.Duration
	// OpenFor is the cooldown before an open breaker admits probes
	// (default 1s).
	OpenFor time.Duration
	// Probes is the number of half-open trial requests: that many
	// consecutive successes close the breaker, any failure reopens it
	// (default 3).
	Probes int
	// OnChange, when non-nil, observes every state transition (the
	// router wires logging and metrics here).
	OnChange func(from, to BreakerState)
	// now overrides the clock in tests.
	now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 20
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 10
	}
	if c.FailRate <= 0 || c.FailRate > 1 {
		c.FailRate = 0.5
	}
	if c.OpenFor <= 0 {
		c.OpenFor = time.Second
	}
	if c.Probes <= 0 {
		c.Probes = 3
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Breaker is one replica's circuit breaker: a rolling window of
// dispatch outcomes (transport errors and over-latency successes both
// count as failures), an open state with cooldown, and bounded
// half-open probing. The router consults it at dispatch time, so an
// open breaker sheds load from a struggling replica without taking it
// out of the ring — unlike MarkDead, the breaker is about a replica
// that still answers, just badly.
//
// All methods are safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	ring     []bool // true = failure
	next     int
	filled   int
	fails    int
	openedAt time.Time
	// probesOut/probesOK track the half-open trial: slots are consumed
	// by Allow, outcomes reported by Observe.
	probesOut int
	probesOK  int
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{cfg: cfg, ring: make([]bool, cfg.Window)}
}

// State reports the current position (open breakers past their
// cooldown still report open until a dispatch flips them half-open).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// FailureRate reports the windowed failure fraction (0 with an
// unfilled window).
func (b *Breaker) FailureRate() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.filled == 0 {
		return 0
	}
	return float64(b.fails) / float64(b.filled)
}

// Admissible reports, without consuming anything, whether an Allow
// call would succeed right now. The router uses it to detect the
// everyone-open corner (where it fails open rather than rejecting).
func (b *Breaker) Admissible() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		return b.cfg.now().Sub(b.openedAt) >= b.cfg.OpenFor
	default:
		return b.probesOut < b.cfg.Probes
	}
}

// Allow reports whether one dispatch to this replica may proceed.
// Callers must pair every true return with exactly one Observe (or
// Cancel, when the dispatch never ran) — half-open probe slots are
// consumed here.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.cfg.now().Sub(b.openedAt) < b.cfg.OpenFor {
			return false
		}
		b.transition(BreakerHalfOpen)
		b.probesOut, b.probesOK = 1, 0
		return true
	default: // half-open
		if b.probesOut >= b.cfg.Probes {
			return false
		}
		b.probesOut++
		return true
	}
}

// Observe records one dispatch outcome. transportErr marks a failed
// connection; a false transportErr with latency above SlowAfter counts
// as a failure too.
func (b *Breaker) Observe(transportErr bool, latency time.Duration) {
	fail := transportErr || (b.cfg.SlowAfter > 0 && latency > b.cfg.SlowAfter)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		if fail {
			b.transition(BreakerOpen)
			b.openedAt = b.cfg.now()
			b.resetWindow()
			return
		}
		b.probesOK++
		if b.probesOK >= b.cfg.Probes {
			b.transition(BreakerClosed)
			b.resetWindow()
		}
		return
	}
	if b.state == BreakerOpen {
		// A straggler from before the open; the window restarts on
		// half-open anyway.
		return
	}
	b.push(fail)
	if b.filled >= b.cfg.MinSamples &&
		float64(b.fails) >= b.cfg.FailRate*float64(b.filled) {
		b.transition(BreakerOpen)
		b.openedAt = b.cfg.now()
		b.resetWindow()
	}
}

// Cancel returns an Allow slot whose dispatch never produced an
// outcome (the request was abandoned before reaching the replica).
func (b *Breaker) Cancel() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen && b.probesOut > 0 {
		b.probesOut--
	}
}

// push records one outcome into the rolling window. Callers hold mu.
func (b *Breaker) push(fail bool) {
	if b.filled == len(b.ring) {
		if b.ring[b.next] {
			b.fails--
		}
	} else {
		b.filled++
	}
	b.ring[b.next] = fail
	if fail {
		b.fails++
	}
	b.next = (b.next + 1) % len(b.ring)
}

// resetWindow clears the rolling window and probe bookkeeping.
// Callers hold mu.
func (b *Breaker) resetWindow() {
	for i := range b.ring {
		b.ring[i] = false
	}
	b.next, b.filled, b.fails = 0, 0, 0
	b.probesOut, b.probesOK = 0, 0
}

// transition flips the state and notifies. Callers hold mu.
func (b *Breaker) transition(to BreakerState) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	if b.cfg.OnChange != nil {
		b.cfg.OnChange(from, to)
	}
}
