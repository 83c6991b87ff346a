package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"gptattr/internal/serve"
	"gptattr/internal/stylometry"
)

// BenchmarkRingOwner is the per-request routing decision: one hash +
// binary search + clockwise scan. It sits on every forward, so it
// must stay allocation-light.
func BenchmarkRingOwner(b *testing.B) {
	r := NewRing(DefaultVnodes)
	for i := 0; i < 8; i++ {
		r.Add(fmt.Sprintf("replica-%d", i))
	}
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("int f%d() { return %d; }", i, i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := r.Owner(keys[i%len(keys)]); !ok {
			b.Fatal("no owner")
		}
	}
}

// BenchmarkRingOwners3 is the full failover-order computation the
// router actually calls (owner + two successors).
func BenchmarkRingOwners3(b *testing.B) {
	r := NewRing(DefaultVnodes)
	for i := 0; i < 8; i++ {
		r.Add(fmt.Sprintf("replica-%d", i))
	}
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("int f%d() { return %d; }", i, i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := r.Owners(keys[i%len(keys)], 3); len(got) != 3 {
			b.Fatal("short owner list")
		}
	}
}

// benchFleet builds a router over fake replicas for overhead
// benchmarks, bypassing testing.T plumbing.
func benchFleet(b *testing.B, n int, mutate func(*Config)) ([]*fakeReplica, *Router) {
	b.Helper()
	fakes := make([]*fakeReplica, n)
	reps := make([]*Replica, n)
	for i := range fakes {
		name := fmt.Sprintf("r%d", i+1)
		f := &fakeReplica{
			name: name, counter: 1, gen: 1,
			seen:   make(map[string]int),
			perGen: make(map[uint64]int),
		}
		f.start("127.0.0.1:0")
		b.Cleanup(f.kill)
		fakes[i] = f
		reps[i] = NewReplica(name, f.url(), nil)
	}
	cfg := Config{Replicas: reps}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := rt.Sync(context.Background()); err != nil {
		b.Fatal(err)
	}
	return fakes, rt
}

// BenchmarkRouterForward is a typed Router.Attribute call against a
// trivial replica: the request encoded to JSON, then the pass-through
// forward (flip-gate RLock, ring pick, dispatch goroutine, one
// loopback HTTP hop, generation and degrade headers parsed), then the
// answer decoded into an AttributeResponse. The serving path skips
// both JSON steps; BenchmarkRouterPassThrough times it alone.
func BenchmarkRouterForward(b *testing.B) {
	_, rt := benchFleet(b, 3, func(c *Config) { c.NoHedge = true })
	ctx := context.Background()
	src := "int bench() { return 0; }"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Attribute(ctx, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouterPassThrough is the router hop a served request
// takes: Infer with the client's body bytes, against a
// trivial replica, returning the replica's answer bytes unchanged. It
// is BenchmarkRouterForward minus the JSON encode and decode, so the
// gap between the two is what the pass-through saves per request.
func BenchmarkRouterPassThrough(b *testing.B) {
	_, rt := benchFleet(b, 3, func(c *Config) { c.NoHedge = true })
	ctx := context.Background()
	src := "int bench() { return 0; }"
	body, err := json.Marshal(serve.AttributeRequest{Source: src})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, err := rt.Infer(ctx, "attribute", src, body)
		if err != nil {
			b.Fatal(err)
		}
		if ans.Generation != 1 || len(ans.Body) == 0 {
			b.Fatalf("answer %+v", ans)
		}
	}
}

// BenchmarkBreakerObserve is the breaker tax on every dispatch: one
// Allow (admission check) plus one Observe (window update) per op,
// alternating success and failure so both branches stay hot. It rides
// the router's per-request path, so it must stay lock-cheap and
// allocation-free.
func BenchmarkBreakerObserve(b *testing.B) {
	br := NewBreaker(BreakerConfig{Window: 64, MinSamples: 32, FailRate: 0.99})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !br.Allow() {
			b.Fatal("closed breaker rejected")
		}
		br.Observe(i%2 == 0, time.Millisecond)
	}
}

// BenchmarkDegradedSurfaceExtract is the brownout floor's unit of
// work: one surface-only feature extraction — what every request
// costs when the controller has shed the deeper families. It bounds
// how cheap "maximally degraded" actually is relative to full
// extraction.
func BenchmarkDegradedSurfaceExtract(b *testing.B) {
	ctx := context.Background()
	src := benchExtractSource
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := stylometry.ExtractDegraded(ctx, src, stylometry.DegradeSurface); err != nil {
			b.Fatal(err)
		}
	}
}

// benchExtractSource is a realistic small function for extraction
// benchmarks (fixture corpora need testing.T, which benchmarks lack).
const benchExtractSource = `#include <vector>
#include <algorithm>

int accumulate_positive(const std::vector<int>& xs) {
	int total = 0;
	for (size_t i = 0; i < xs.size(); ++i) {
		if (xs[i] > 0) {
			total += xs[i];
		}
	}
	return total;
}
`

// BenchmarkRouterHedgedForward measures the hedge path end to end:
// the key's owner is stalled far past the hedge delay, so every
// request waits out HedgeDelay (1ms here), fires the hedge, and wins
// on the runner-up. Per-op time ≈ hedge delay + one forward; the
// interesting regression is any growth beyond that sum.
func BenchmarkRouterHedgedForward(b *testing.B) {
	fakes, rt := benchFleet(b, 3, func(c *Config) { c.HedgeDelay = time.Millisecond })
	ctx := context.Background()
	src := "int bench() { return 0; }"
	owner, _ := rt.ring.Owner([]byte(serve.AttributeRequest{Source: src}.Source))
	for _, f := range fakes {
		if f.name == owner {
			f.setDelay(time.Second)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := rt.Attribute(ctx, src)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Author == owner {
			b.Fatal("stalled owner answered")
		}
	}
}
