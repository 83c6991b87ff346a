// Package fault is a seeded, deterministic fault-injection registry
// for testing failure recovery across the pipeline and serving layers.
//
// Production code declares named injection points (fault.Hit,
// fault.Data) on its hot paths; tests and chaos harnesses arm them
// with per-point policies (fire probability or every-Nth-hit
// triggers, warm-up skips, total-fire limits) and one of four fault
// kinds: error, latency, partial write, or panic. Disarmed, an
// injection point costs a single atomic load — the registry is never
// consulted and no allocation happens — so the points can stay in
// production builds permanently.
//
// Determinism: every point owns a PRNG seeded from the registry seed
// and the point name, and draws under the point's lock, so for a
// given seed the k-th hit of a point always makes the same fire
// decision, independent of which goroutine arrives k-th. Policies
// with Limit < retry attempts therefore guarantee that supervised
// (retried) call sites recover, which is what lets chaos tests demand
// bit-identical outputs under a fault storm.
package fault

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Kind selects what an armed injection point does when it fires.
type Kind int

// Fault kinds.
const (
	// KindError makes Hit return an *InjectedError (transient, so
	// supervised call sites retry it).
	KindError Kind = iota
	// KindLatency makes Hit sleep for Policy.Latency and return nil.
	KindLatency
	// KindPartialWrite makes Data return a truncated copy of its
	// input (Hit ignores it). It models a torn disk write.
	KindPartialWrite
	// KindPanic makes Hit panic with a PanicValue. Supervised worker
	// pools must contain it and convert it to a per-sample error.
	KindPanic
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindLatency:
		return "latency"
	case KindPartialWrite:
		return "partial"
	case KindPanic:
		return "panic"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Policy arms one injection point. The zero Policy fires an error on
// every hit; set Prob or Every to make firing selective.
type Policy struct {
	// Kind is what happens on fire.
	Kind Kind
	// Prob fires with this probability per hit (drawn from the
	// point's seeded PRNG). Ignored when Every > 0.
	Prob float64
	// Every fires on every Nth hit (1 = every hit). When both Every
	// and Prob are zero the policy fires on every hit.
	Every int
	// After suppresses fires for the first After hits (warm-up).
	After int
	// Limit caps total fires (0 = unlimited). Keeping Limit below a
	// call site's retry attempts guarantees the site recovers.
	Limit int
	// Latency is the sleep for KindLatency fires.
	Latency time.Duration
	// Err overrides the error returned by KindError fires; it is
	// wrapped in an *InjectedError so it stays transient.
	Err error
}

// InjectedError is returned by fired KindError points. It reports
// itself transient so fault.Retry (and any supervisor checking
// IsTransient) will retry it.
type InjectedError struct {
	// Point is the injection-point name that fired.
	Point string
	// Err is the optional Policy.Err cause.
	Err error
}

// Error describes the fault and its origin point.
func (e *InjectedError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("fault: injected at %s: %v", e.Point, e.Err)
	}
	return fmt.Sprintf("fault: injected error at %s", e.Point)
}

// Unwrap exposes the Policy.Err cause.
func (e *InjectedError) Unwrap() error { return e.Err }

// Transient marks injected errors as retryable.
func (e *InjectedError) Transient() bool { return true }

// PanicValue is the value fired KindPanic points panic with, so
// containment sites can distinguish injected panics (transient,
// retryable) from real ones.
type PanicValue struct {
	// Point is the injection-point name that fired.
	Point string
}

// String describes the injected panic.
func (p PanicValue) String() string { return "fault: injected panic at " + p.Point }

// IsTransient reports whether err (or anything it wraps) marks itself
// as transient via a `Transient() bool` method. Injected faults do;
// real extraction or verification failures do not, so supervisors
// retry exactly the faults that model transient conditions.
func IsTransient(err error) bool {
	for err != nil {
		if t, ok := err.(interface{ Transient() bool }); ok && t.Transient() {
			return true
		}
		err = errors.Unwrap(err)
	}
	return false
}

// Retry runs op up to attempts times, sleeping backoff, 2*backoff,
// 4*backoff, ... between tries, but only while the failure is
// transient (IsTransient). Non-transient errors — real failures —
// return immediately. The last error is returned when the budget is
// exhausted.
func Retry(attempts int, backoff time.Duration, op func() error) error {
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for i := 0; i < attempts; i++ {
		if err = op(); err == nil || !IsTransient(err) {
			return err
		}
		if i < attempts-1 && backoff > 0 {
			time.Sleep(backoff << uint(i))
		}
	}
	return err
}

// PointStats counts one point's activity.
type PointStats struct {
	// Hits counts Hit/Data calls that consulted the point.
	Hits uint64
	// Fires counts hits on which the policy fired.
	Fires uint64
}

// point is one armed injection point.
type point struct {
	policy Policy
	rng    *rand.Rand
	hits   uint64
	fires  uint64
}

// Registry holds armed injection points. The zero value is unusable;
// use NewRegistry, or the package-level default registry via Enable.
type Registry struct {
	active atomic.Bool
	mu     sync.Mutex
	seed   int64
	points map[string]*point
}

// NewRegistry builds an inactive registry with the given seed.
func NewRegistry(seed int64) *Registry {
	return &Registry{seed: seed, points: make(map[string]*point)}
}

// Set arms (or re-arms) one named point and activates the registry.
func (r *Registry) Set(name string, p Policy) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := fnv.New64a()
	h.Write([]byte(name))
	r.points[name] = &point{
		policy: p,
		rng:    rand.New(rand.NewSource(r.seed ^ int64(h.Sum64()))),
	}
	r.active.Store(true)
}

// Clear disarms every point and deactivates the registry.
func (r *Registry) Clear() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.points = make(map[string]*point)
	r.active.Store(false)
}

// Stats snapshots per-point hit/fire counters for every armed point.
func (r *Registry) Stats() map[string]PointStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]PointStats, len(r.points))
	for name, pt := range r.points {
		out[name] = PointStats{Hits: pt.hits, Fires: pt.fires}
	}
	return out
}

// fire records a hit and decides whether the policy fires, returning
// the policy and, for partial-write kinds, a truncation length drawn
// from the point's PRNG (cut < lenB). Latency sleeps and panics
// happen in the caller, outside the point lock.
func (r *Registry) fire(name string, lenB int) (p Policy, fires bool, cut int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	pt, ok := r.points[name]
	if !ok {
		return Policy{}, false, 0
	}
	pt.hits++
	p = pt.policy
	switch {
	case pt.hits <= uint64(p.After):
	case p.Limit > 0 && pt.fires >= uint64(p.Limit):
	case p.Every > 0:
		fires = (pt.hits-uint64(p.After))%uint64(p.Every) == 0
	case p.Prob > 0:
		fires = pt.rng.Float64() < p.Prob
	default:
		fires = true
	}
	if fires {
		pt.fires++
		if p.Kind == KindPartialWrite && lenB > 0 {
			cut = pt.rng.Intn(lenB)
		}
	}
	return p, fires, cut
}

// Hit consults one injection point. Disarmed (the common case) it
// returns nil after a single atomic load. Armed, it applies the
// point's policy: error kinds return an *InjectedError, latency kinds
// sleep, panic kinds panic with a PanicValue, and partial-write kinds
// do nothing (they only act through Data).
func (r *Registry) Hit(name string) error {
	return r.HitContext(context.Background(), name)
}

// HitContext is Hit with a context bound on injected latency: a fired
// latency fault sleeps at most until ctx is done, then returns
// ctx.Err() so the call site aborts like any other expired-deadline
// path. An injected delay must never outlive the request it delays —
// otherwise a latency storm pins goroutines past their deadlines and
// the brownout contract (degrade within budget) cannot hold.
func (r *Registry) HitContext(ctx context.Context, name string) error {
	if !r.active.Load() {
		return nil
	}
	p, fires, _ := r.fire(name, 0)
	if !fires {
		return nil
	}
	switch p.Kind {
	case KindError:
		return &InjectedError{Point: name, Err: p.Err}
	case KindLatency:
		return sleepContext(ctx, p.Latency)
	case KindPanic:
		panic(PanicValue{Point: name})
	default:
		return nil
	}
}

// sleepContext sleeps d or until ctx is done, whichever comes first,
// returning ctx.Err() when the context won.
func sleepContext(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	if ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Data consults one injection point on a byte payload about to be
// written. A fired partial-write policy returns a truncated copy
// (a seeded fraction of the input, always shorter than the input);
// other kinds behave exactly like Hit. Disarmed it returns the input
// unchanged.
func (r *Registry) Data(name string, b []byte) ([]byte, error) {
	if !r.active.Load() {
		return b, nil
	}
	p, fires, cut := r.fire(name, len(b))
	if !fires {
		return b, nil
	}
	switch p.Kind {
	case KindPartialWrite:
		torn := make([]byte, cut)
		copy(torn, b[:cut])
		return torn, nil
	case KindError:
		return b, &InjectedError{Point: name, Err: p.Err}
	case KindLatency:
		time.Sleep(p.Latency)
		return b, nil
	case KindPanic:
		panic(PanicValue{Point: name})
	default:
		return b, nil
	}
}

// def is the package default registry the exported helpers operate
// on. It starts inactive: every Hit in production is one atomic load.
var def atomic.Pointer[Registry]

func init() { def.Store(NewRegistry(1)) }

// Enable resets the default registry with a fresh seed, disarming
// every point. Follow with Set calls to arm points.
func Enable(seed int64) { def.Store(NewRegistry(seed)) }

// Disable disarms every point on the default registry.
func Disable() { def.Load().Clear() }

// Set arms one point on the default registry.
func Set(name string, p Policy) { def.Load().Set(name, p) }

// Hit consults one point on the default registry.
func Hit(name string) error { return def.Load().Hit(name) }

// HitContext consults one point on the default registry with a
// context bound on injected latency (see Registry.HitContext).
func HitContext(ctx context.Context, name string) error { return def.Load().HitContext(ctx, name) }

// Data consults one payload point on the default registry.
func Data(name string, b []byte) ([]byte, error) { return def.Load().Data(name, b) }

// Stats snapshots the default registry's per-point counters.
func Stats() map[string]PointStats { return def.Load().Stats() }
