package metrics

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	for i := 0; i < 5; i++ {
		c.Inc()
	}
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	c.Raise(9)
	c.Raise(3) // never lowers
	if c.Value() != 9 {
		t.Errorf("raised counter = %d, want 9", c.Value())
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Errorf("gauge = %d, want 4", g.Value())
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	// 1..1000 ms uniformly: p50 ≈ 500ms, p95 ≈ 950ms, p99 ≈ 990ms.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	checks := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Millisecond},
		{0.95, 950 * time.Millisecond},
		{0.99, 990 * time.Millisecond},
	}
	for _, c := range checks {
		got := h.Quantile(c.q)
		// Log-bucketed histograms with 2 buckets/doubling estimate
		// within ~25% of the true value.
		if err := math.Abs(got.Seconds()-c.want.Seconds()) / c.want.Seconds(); err > 0.25 {
			t.Errorf("q%.2f = %v, want ~%v (err %.0f%%)", c.q, got, c.want, 100*err)
		}
	}
	if h.Min() != 1*time.Millisecond {
		t.Errorf("min = %v", h.Min())
	}
	if h.Max() != 1000*time.Millisecond {
		t.Errorf("max = %v", h.Max())
	}
	if m := h.Mean(); m < 495*time.Millisecond || m > 505*time.Millisecond {
		t.Errorf("mean = %v, want ~500ms", m)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Error("empty histogram not all-zero")
	}
	h.Observe(0)
	h.Observe(-time.Second) // clamped to 0
	h.Observe(5 * time.Minute)
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 0 {
		t.Errorf("min = %v, want 0", h.Min())
	}
	if h.Max() != 5*time.Minute {
		t.Errorf("max = %v", h.Max())
	}
	// Quantiles stay inside [min, max] even at bucket extremes.
	if q := h.Quantile(1); q > 5*time.Minute {
		t.Errorf("q100 = %v exceeds max", q)
	}
	if q := h.Quantile(0); q != 0 {
		t.Errorf("q0 = %v, want 0", q)
	}
}

func TestRegistryTextRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total").Raise(12)
	r.Gauge("inflight").Set(3)
	for i := 0; i < 10; i++ {
		r.Histogram("latency").Observe(10 * time.Millisecond)
	}
	// Same name returns the same metric.
	if r.Counter("requests_total").Value() != 12 {
		t.Error("counter not idempotent by name")
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"requests_total 12\n",
		"inflight 3\n",
		"latency_count 10\n",
		"latency_p50_seconds ",
		"latency_p95_seconds ",
		"latency_p99_seconds ",
		"latency_sum_seconds 0.100000\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Sorted output: lines must be in order.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i] < lines[i-1] {
			t.Errorf("output not sorted: %q after %q", lines[i], lines[i-1])
		}
	}
}

func TestConcurrentObservation(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Gauge(fmt.Sprintf("g%d", g%2)).Add(1)
				r.Histogram("h").Observe(time.Duration(i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if r.Counter("c").Value() != 8000 {
		t.Errorf("counter = %d, want 8000", r.Counter("c").Value())
	}
	if r.Histogram("h").Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", r.Histogram("h").Count())
	}
}
