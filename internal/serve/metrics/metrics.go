// Package metrics is a small, allocation-free metrics core for the
// attribution serving layer: counters, gauges, and log-bucketed
// latency histograms with percentile estimation, rendered as plain
// text for GET /metrics. Both cmd/attrserve and cmd/attrload report
// through it, so the server's view and the load generator's view are
// directly comparable.
//
// All types are safe for concurrent use; the hot-path operations
// (Counter.Inc, Gauge.Set, Histogram.Observe) are single atomic ops.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Raise lifts the count to n when n is higher, so a counter can mirror
// a running total kept elsewhere; concurrent callers never overshoot.
func (c *Counter) Raise(n uint64) {
	for cur := c.v.Load(); n > cur; cur = c.v.Load() {
		if c.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Gauge is an instantaneous value that can move both ways (queue
// depth, in-flight requests, model generation).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by delta (negative to decrement).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates duration observations in exponential buckets
// and estimates percentiles by linear interpolation within the
// containing bucket. The bucket layout spans 1µs..~68s with 2 buckets
// per doubling, which keeps percentile error under ~20% of the value —
// plenty for latency reporting — at 54 words of memory.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // total nanoseconds
	min    atomic.Uint64
	max    atomic.Uint64
}

const (
	numBuckets = 54
	// bucketBase is the nanosecond upper bound of bucket 0 (1µs).
	bucketBase = 1000.0
	// bucketGrowth is the per-bucket bound multiplier (sqrt 2: two
	// buckets per doubling).
	bucketGrowth = 1.4142135623730951
)

// bucketBound returns the upper bound, in nanoseconds, of bucket i.
func bucketBound(i int) float64 {
	return bucketBase * math.Pow(bucketGrowth, float64(i))
}

// bucketFor returns the index of the bucket containing d.
func bucketFor(d time.Duration) int {
	ns := float64(d.Nanoseconds())
	if ns <= bucketBase {
		return 0
	}
	i := int(math.Ceil(math.Log(ns/bucketBase) / math.Log(bucketGrowth)))
	if i >= numBuckets {
		return numBuckets - 1
	}
	return i
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	ns := uint64(d.Nanoseconds())
	h.counts[bucketFor(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.min.Load()
		if cur != 0 && ns >= cur {
			break
		}
		if h.min.CompareAndSwap(cur, ns+1) { // store ns+1 so 0 means "unset"
			break
		}
	}
	for {
		cur := h.max.Load()
		if ns <= cur {
			break
		}
		if h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() time.Duration {
	v := h.min.Load()
	if v == 0 {
		return 0
	}
	return time.Duration(v - 1)
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile estimates the q-th quantile (q in [0,1]) from the bucket
// counts, interpolating linearly inside the containing bucket and
// clamping to the observed min/max. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := 0; i < numBuckets; i++ {
		n := float64(h.counts[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lo := 0.0
			if i > 0 {
				lo = bucketBound(i - 1)
			}
			hi := bucketBound(i)
			// The last bucket is open-ended: observations past its
			// nominal bound saturate into it, so its real upper edge
			// is the observed max, not the bound.
			if i == numBuckets-1 {
				if mx := float64(h.Max().Nanoseconds()); mx > hi {
					hi = mx
				}
			}
			frac := 0.0
			if n > 0 {
				frac = (rank - cum) / n
			}
			est := lo + frac*(hi-lo)
			if mx := float64(h.Max().Nanoseconds()); est > mx {
				est = mx
			}
			if mn := float64(h.Min().Nanoseconds()); est < mn {
				est = mn
			}
			return time.Duration(est)
		}
		cum += n
	}
	return h.Max()
}

// Snapshot is a point-in-time percentile summary of a histogram.
type Snapshot struct {
	Count          uint64
	Mean, Min, Max time.Duration
	P50, P95, P99  time.Duration
}

// Snap captures the standard percentile summary.
func (h *Histogram) Snap() Snapshot {
	return Snapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// Registry names metrics and renders them as "name value" lines,
// sorted by name, one metric per line — histograms expand into
// _count/_sum_seconds/_p50/_p95/_p99 lines. Registration is cheap and
// idempotent by name.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// WriteText renders every metric as plain text, one "name value" per
// line in sorted name order.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	lines := make([]string, 0, len(r.counters)+len(r.gauges)+5*len(r.histograms))
	for name, c := range r.counters {
		lines = append(lines, fmt.Sprintf("%s %d", name, c.Value()))
	}
	for name, g := range r.gauges {
		lines = append(lines, fmt.Sprintf("%s %d", name, g.Value()))
	}
	for name, h := range r.histograms {
		s := h.Snap()
		lines = append(lines,
			fmt.Sprintf("%s_count %d", name, s.Count),
			fmt.Sprintf("%s_sum_seconds %.6f", name, h.Sum().Seconds()),
			fmt.Sprintf("%s_p50_seconds %.6f", name, s.P50.Seconds()),
			fmt.Sprintf("%s_p95_seconds %.6f", name, s.P95.Seconds()),
			fmt.Sprintf("%s_p99_seconds %.6f", name, s.P99.Seconds()),
		)
	}
	r.mu.Unlock()
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}
