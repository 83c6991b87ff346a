package fault

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestDisarmedHitIsNil(t *testing.T) {
	r := NewRegistry(1)
	if r.active.Load() {
		t.Fatal("fresh registry reports active")
	}
	if err := r.Hit("anything"); err != nil {
		t.Fatalf("disarmed Hit: %v", err)
	}
	b, err := r.Data("anything", []byte("abc"))
	if err != nil || string(b) != "abc" {
		t.Fatalf("disarmed Data = %q, %v", b, err)
	}
	if got := r.Stats(); len(got) != 0 {
		t.Fatalf("disarmed stats non-empty: %v", got)
	}
}

func TestEveryNthFiring(t *testing.T) {
	r := NewRegistry(1)
	r.Set("p", Policy{Kind: KindError, Every: 3})
	var fired []int
	for i := 1; i <= 9; i++ {
		if err := r.Hit("p"); err != nil {
			fired = append(fired, i)
			var ie *InjectedError
			if !errors.As(err, &ie) || ie.Point != "p" {
				t.Fatalf("hit %d: error %v lacks point provenance", i, err)
			}
		}
	}
	if fmt.Sprint(fired) != "[3 6 9]" {
		t.Fatalf("Every=3 fired on hits %v, want [3 6 9]", fired)
	}
	st := r.Stats()["p"]
	if st.Hits != 9 || st.Fires != 3 {
		t.Fatalf("stats = %+v, want 9 hits / 3 fires", st)
	}
}

func TestAfterAndLimit(t *testing.T) {
	r := NewRegistry(1)
	r.Set("p", Policy{Kind: KindError, After: 2, Limit: 2})
	var fired []int
	for i := 1; i <= 8; i++ {
		if r.Hit("p") != nil {
			fired = append(fired, i)
		}
	}
	if fmt.Sprint(fired) != "[3 4]" {
		t.Fatalf("After=2 Limit=2 fired on hits %v, want [3 4]", fired)
	}
}

func TestProbDeterministicPerSeed(t *testing.T) {
	draw := func(seed int64) []bool {
		r := NewRegistry(seed)
		r.Set("p", Policy{Kind: KindError, Prob: 0.5})
		out := make([]bool, 64)
		for i := range out {
			out[i] = r.Hit("p") != nil
		}
		return out
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d", i)
		}
	}
	c := draw(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical 64-draw sequences")
	}
}

func TestPanicKindCarriesProvenance(t *testing.T) {
	r := NewRegistry(1)
	r.Set("boom", Policy{Kind: KindPanic})
	defer func() {
		v := recover()
		pv, ok := v.(PanicValue)
		if !ok || pv.Point != "boom" {
			t.Fatalf("recovered %v, want PanicValue{boom}", v)
		}
	}()
	_ = r.Hit("boom")
	t.Fatal("armed panic point did not panic")
}

func TestPartialWriteTruncates(t *testing.T) {
	r := NewRegistry(3)
	r.Set("w", Policy{Kind: KindPartialWrite})
	in := []byte("0123456789abcdef")
	out, err := r.Data("w", in)
	if err != nil {
		t.Fatalf("Data: %v", err)
	}
	if len(out) >= len(in) {
		t.Fatalf("partial write returned %d bytes, want < %d", len(out), len(in))
	}
	if string(out) != string(in[:len(out)]) {
		t.Fatalf("truncation is not a prefix: %q", out)
	}
	if string(in) != "0123456789abcdef" {
		t.Fatal("input mutated")
	}
}

func TestLatencyKindSleeps(t *testing.T) {
	r := NewRegistry(1)
	r.Set("slow", Policy{Kind: KindLatency, Latency: 20 * time.Millisecond})
	start := time.Now()
	if err := r.Hit("slow"); err != nil {
		t.Fatalf("latency hit returned error: %v", err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("latency fire slept only %v", d)
	}
}

func TestRetryAbsorbsTransientOnly(t *testing.T) {
	r := NewRegistry(1)
	r.Set("p", Policy{Kind: KindError, Limit: 2})
	calls := 0
	err := Retry(3, 0, func() error {
		calls++
		return r.Hit("p")
	})
	if err != nil || calls != 3 {
		t.Fatalf("Retry over Limit=2: err=%v calls=%d, want nil after 3", err, calls)
	}

	hard := errors.New("disk on fire")
	calls = 0
	err = Retry(5, 0, func() error { calls++; return hard })
	if !errors.Is(err, hard) || calls != 1 {
		t.Fatalf("Retry on non-transient: err=%v calls=%d, want immediate return", err, calls)
	}
}

func TestIsTransient(t *testing.T) {
	ie := &InjectedError{Point: "x"}
	if !IsTransient(ie) {
		t.Fatal("InjectedError not transient")
	}
	if !IsTransient(fmt.Errorf("wrap: %w", ie)) {
		t.Fatal("wrapped InjectedError not transient")
	}
	if IsTransient(errors.New("plain")) {
		t.Fatal("plain error transient")
	}
	if IsTransient(nil) {
		t.Fatal("nil transient")
	}
}

func TestConcurrentHitsAreCountedExactly(t *testing.T) {
	r := NewRegistry(1)
	r.Set("p", Policy{Kind: KindError, Every: 10})
	var wg sync.WaitGroup
	const workers, per = 8, 100
	var mu sync.Mutex
	fires := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if r.Hit("p") != nil {
					mu.Lock()
					fires++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	st := r.Stats()["p"]
	if st.Hits != workers*per {
		t.Fatalf("hits = %d, want %d", st.Hits, workers*per)
	}
	if want := uint64(workers * per / 10); st.Fires != want || uint64(fires) != want {
		t.Fatalf("fires = %d (observed %d), want %d", st.Fires, fires, want)
	}
}

func TestDefaultRegistryEnableDisable(t *testing.T) {
	defer Disable()
	if def.Load().active.Load() {
		t.Fatal("default registry active before Enable")
	}
	Enable(42)
	Set("d", Policy{Kind: KindError, Every: 1})
	if !def.Load().active.Load() {
		t.Fatal("default registry inactive after Set")
	}
	if Hit("d") == nil {
		t.Fatal("armed default point did not fire")
	}
	if got := Stats(); len(got) != 1 || got["d"].Hits != 1 {
		t.Fatalf("Stats() = %v, want only point d, hit once", got)
	}
	Disable()
	if def.Load().active.Load() || Hit("d") != nil {
		t.Fatal("Disable left the registry armed")
	}
}

func TestParseSpec(t *testing.T) {
	entries, err := ParseSpec("a.b=error:every=3:limit=2, c=latency:latency=5ms:p=0.25,d=partial:after=1,e=panic")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if len(entries) != 4 {
		t.Fatalf("parsed %d entries, want 4", len(entries))
	}
	a := entries[0]
	if a.Point != "a.b" || a.Policy.Kind != KindError || a.Policy.Every != 3 || a.Policy.Limit != 2 {
		t.Fatalf("entry 0 = %+v", a)
	}
	c := entries[1]
	if c.Policy.Kind != KindLatency || c.Policy.Latency != 5*time.Millisecond || c.Policy.Prob != 0.25 {
		t.Fatalf("entry 1 = %+v", c)
	}
	if entries[2].Policy.Kind != KindPartialWrite || entries[2].Policy.After != 1 {
		t.Fatalf("entry 2 = %+v", entries[2])
	}
	if entries[3].Policy.Kind != KindPanic {
		t.Fatalf("entry 3 = %+v", entries[3])
	}

	for _, bad := range []string{"noequals", "p=flood", "p=error:banana", "p=error:every=x", "=error"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
	if entries, err := ParseSpec(""); err != nil || len(entries) != 0 {
		t.Fatalf("empty spec: %v, %v", entries, err)
	}
}

func TestEnableSpec(t *testing.T) {
	defer Disable()
	entries, err := EnableSpec(9, "x=error:every=2")
	if err != nil || len(entries) != 1 {
		t.Fatalf("EnableSpec: %v, %v", entries, err)
	}
	if Hit("x") != nil {
		t.Fatal("hit 1 fired, want every=2")
	}
	if Hit("x") == nil {
		t.Fatal("hit 2 did not fire")
	}
	Disable()
	if got, err := EnableSpec(9, ""); err != nil || got != nil || def.Load().active.Load() {
		t.Fatalf("empty EnableSpec armed the registry: %v %v active=%v", got, err, def.Load().active.Load())
	}
}
