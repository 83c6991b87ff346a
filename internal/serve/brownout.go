package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"gptattr/internal/stylometry"
)

// BrownoutConfig tunes the adaptive overload controller.
type BrownoutConfig struct {
	// Target is the acceptable standing queue delay (default 25ms).
	// CoDel-style: delay below Target is just burst absorption; the
	// minimum delay over a whole window staying above Target means a
	// standing queue — real overload, not a burst.
	Target time.Duration
	// Window is the decision interval (default 100ms). One level step
	// at most per window keeps transitions monotone and observable.
	Window time.Duration
	// Max caps how deep the controller will degrade (default
	// stylometry.MaxDegrade).
	Max stylometry.DegradeLevel
	// Logf, when non-nil, receives one line per level transition.
	Logf func(format string, args ...any)
	// now overrides the clock in tests.
	now func() time.Time
}

func (c BrownoutConfig) withDefaults() BrownoutConfig {
	if c.Target <= 0 {
		c.Target = 25 * time.Millisecond
	}
	if c.Window <= 0 {
		c.Window = 100 * time.Millisecond
	}
	if c.Max <= 0 || c.Max > stylometry.MaxDegrade {
		c.Max = stylometry.MaxDegrade
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Brownout is the adaptive admission controller that walks the degrade
// ladder under queue-delay pressure before the server ever sheds a
// request: feature families are cheaper to drop than answers. It
// follows CoDel's key idea — track the MINIMUM queue delay over a
// sliding window, because the minimum filters out bursts and exposes
// only the standing queue. A window whose minimum exceeds Target steps
// the forced degrade level up one; a window whose minimum clears
// Target/2 steps it back down one. Single steps per window make the
// level trajectory monotone between decisions, which the chaos tests
// pin.
//
// Shedding is unchanged: the batcher's bounded queue still answers
// ErrSaturated (429) on overflow — brownout just makes each queued
// request cheaper first, so saturation is reached later or not at all.
type Brownout struct {
	cfg BrownoutConfig

	// level is the current forced floor, read lock-free per extraction.
	level atomic.Int32

	// stepsUp/stepsDown count transitions for /metrics.
	stepsUp   atomic.Uint64
	stepsDown atomic.Uint64

	mu        sync.Mutex
	windowEnd time.Time
	minDelay  time.Duration
	sampled   bool
}

// NewBrownout builds a controller starting at level 0 (full fidelity).
func NewBrownout(cfg BrownoutConfig) *Brownout {
	return &Brownout{cfg: cfg.withDefaults()}
}

// Level returns the current forced degrade floor (lock-free).
func (b *Brownout) Level() stylometry.DegradeLevel {
	return stylometry.DegradeLevel(b.level.Load())
}

// StepsUp reports how many times the controller has degraded a level.
func (b *Brownout) StepsUp() uint64 { return b.stepsUp.Load() }

// StepsDown reports how many times the controller has recovered a level.
func (b *Brownout) StepsDown() uint64 { return b.stepsDown.Load() }

// Observe feeds one request's queue delay (admission to the start of
// its extraction). The batcher's workers call it for every job,
// expired or not.
func (b *Brownout) Observe(delay time.Duration) {
	now := b.cfg.now()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.windowEnd.IsZero() {
		b.windowEnd = now.Add(b.cfg.Window)
	}
	if now.After(b.windowEnd) {
		if b.sampled {
			b.decideLocked()
		}
		b.windowEnd = now.Add(b.cfg.Window)
		b.sampled = false
	}
	if !b.sampled || delay < b.minDelay {
		b.minDelay = delay
	}
	b.sampled = true
}

// decideLocked applies one window's verdict. Callers hold mu.
func (b *Brownout) decideLocked() {
	cur := stylometry.DegradeLevel(b.level.Load())
	switch {
	case b.minDelay > b.cfg.Target && cur < b.cfg.Max:
		b.level.Store(int32(cur + 1))
		b.stepsUp.Add(1)
		b.logf("serve: brownout step up %v -> %v (min queue delay %v > target %v)",
			cur, cur+1, b.minDelay, b.cfg.Target)
	case b.minDelay <= b.cfg.Target/2 && cur > stylometry.DegradeNone:
		b.level.Store(int32(cur - 1))
		b.stepsDown.Add(1)
		b.logf("serve: brownout step down %v -> %v (min queue delay %v cleared)",
			cur, cur-1, b.minDelay)
	}
}

func (b *Brownout) logf(format string, args ...any) {
	if b.cfg.Logf != nil {
		b.cfg.Logf(format, args...)
	}
}
