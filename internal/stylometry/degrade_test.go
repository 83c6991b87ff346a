package stylometry

import (
	"context"
	"sync"
	"testing"
	"time"

	"gptattr/internal/fault"
	"gptattr/internal/semstats"
)

// TestDegradedEqualsFilteredFull pins the ladder's core invariant: a
// vector extracted at level N is bit-identical to the full vector
// filtered to that level's families. This is what makes family-subset
// oracles correct on degraded vectors — they score exactly the vectors
// they were trained on.
func TestDegradedEqualsFilteredFull(t *testing.T) {
	for _, src := range []string{sampleA, sampleB} {
		full, err := Extract(src)
		if err != nil {
			t.Fatalf("Extract: %v", err)
		}
		for lvl := DegradeNone; lvl <= MaxDegrade; lvl++ {
			got, gotLvl, err := ExtractDegraded(context.Background(), src, lvl)
			if err != nil {
				t.Fatalf("ExtractDegraded(%v): %v", lvl, err)
			}
			if gotLvl != lvl {
				t.Fatalf("ExtractDegraded(%v) reported level %v", lvl, gotLvl)
			}
			want := FilterFamilies(full, lvl.Families())
			if len(got) != len(want) {
				t.Errorf("level %v: %d features, want %d", lvl, len(got), len(want))
			}
			for name, v := range want {
				if got[name] != v {
					t.Errorf("level %v: %s = %v, want %v", lvl, name, got[name], v)
				}
			}
			for name := range got {
				if !lvl.Keeps(Family(name)) {
					t.Errorf("level %v: feature %s from shed family %v survived", lvl, name, Family(name))
				}
			}
		}
	}
}

// TestDegradeLadderNested pins that each level's families are a strict
// subset of the previous level's — the property the fallback oracles
// rely on (a more-degraded model's vocabulary exists at every less
// degraded level).
func TestDegradeLadderNested(t *testing.T) {
	for lvl := DegradeNoSemantic; lvl <= MaxDegrade; lvl++ {
		prev := (lvl - 1).Families()
		cur := lvl.Families()
		if len(cur) >= len(prev) {
			t.Fatalf("level %v has %d families, previous has %d — not shrinking", lvl, len(cur), len(prev))
		}
		for _, fam := range cur {
			if !(lvl - 1).Keeps(fam) {
				t.Fatalf("level %v keeps %v which level %v sheds — not nested", lvl, fam, lvl-1)
			}
		}
	}
}

// TestExtractDegradedBudgetExpiry drives a latency storm on the
// semantic pass boundary: the injected sleep exceeds the budget, so
// the extractor must return a valid no-semantic vector (never an
// error, never a partial semantic family).
func TestExtractDegradedBudgetExpiry(t *testing.T) {
	fault.Enable(42)
	defer fault.Disable()
	fault.Set(semstats.PointAnalyze, fault.Policy{Kind: fault.KindLatency, Latency: 10 * time.Second})

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	f, lvl, err := ExtractDegraded(ctx, sampleB, DegradeNone)
	if err != nil {
		t.Fatalf("ExtractDegraded under storm: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("extraction blocked %v under a budget of 50ms", elapsed)
	}
	if lvl != DegradeNoSemantic {
		t.Fatalf("level = %v, want %v", lvl, DegradeNoSemantic)
	}
	for name := range f {
		if Family(name) == FamilySemantic {
			t.Fatalf("partial semantic feature %s survived budget expiry", name)
		}
	}
	// And the surviving families are still exactly the full extraction's.
	fault.Disable()
	full, err := Extract(sampleB)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	want := FilterFamilies(full, DegradeNoSemantic.Families())
	if len(f) != len(want) {
		t.Fatalf("degraded vector has %d features, want %d", len(f), len(want))
	}
	for name, v := range want {
		if f[name] != v {
			t.Fatalf("degraded %s = %v, want %v", name, f[name], v)
		}
	}
}

// TestExtractDegradedCacheDiscipline pins the cache contract: degraded
// vectors are never cached; cache hits answer full vectors even under
// a forced floor.
func TestExtractDegradedCacheDiscipline(t *testing.T) {
	cache := &mapCache{m: make(map[string]*Sparse)}

	// A forced-surface extraction must not populate the cache.
	out, levels, err := ExtractAll([]string{sampleA}, DegradeSurface, ExtractConfig{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatalf("ExtractAll: %v", err)
	}
	if levels[0] != DegradeSurface {
		t.Fatalf("level = %v, want %v", levels[0], DegradeSurface)
	}
	if len(cache.m) != 0 {
		t.Fatalf("degraded vector was cached (%d entries)", len(cache.m))
	}
	for name := range out[0] {
		if fam := Family(name); fam == FamilySemantic || fam == FamilySyntactic {
			t.Fatalf("surface vector carries %v feature %s", fam, name)
		}
	}

	// A full extraction caches; a later forced-degraded request then
	// hits and gets the full vector back at level 0.
	if _, levels, err = ExtractAll([]string{sampleA}, DegradeNone, ExtractConfig{Workers: 1, Cache: cache}); err != nil {
		t.Fatalf("full extraction: %v", err)
	}
	if levels[0] != DegradeNone || len(cache.m) != 1 {
		t.Fatalf("full extraction: level %v, %d cached", levels[0], len(cache.m))
	}
	_, levels, err = ExtractAll([]string{sampleA}, DegradeSurface, ExtractConfig{Workers: 1, Cache: cache})
	if err != nil || levels[0] != DegradeNone {
		t.Fatalf("cache hit under forced floor: level %v err %v, want level 0", levels[0], err)
	}
}

// TestDegradeLevelStrings covers the header/log rendering.
func TestDegradeLevelStrings(t *testing.T) {
	cases := map[DegradeLevel]string{
		DegradeNone:       "full",
		DegradeNoSemantic: "no-semantic",
		DegradeSurface:    "surface",
	}
	for lvl, want := range cases {
		if got := lvl.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(lvl), got, want)
		}
	}
	if DegradeLevel(9).Clamp() != MaxDegrade || DegradeLevel(-3).Clamp() != DegradeNone {
		t.Error("Clamp out of range")
	}
}

// mapCache is a minimal FeatureCache for tests.
type mapCache struct {
	mu sync.Mutex
	m  map[string]*Sparse
}

func (c *mapCache) Get(src string) (*Sparse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sp, ok := c.m[src]
	return sp, ok
}

func (c *mapCache) Put(src string, v Vector) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[src] = v.Sparse()
}
