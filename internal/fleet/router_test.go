package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gptattr/internal/fault"
	"gptattr/internal/serve"
	"gptattr/internal/serve/metrics"
)

// fakeReplica speaks the replica wire protocol (inference, healthz,
// stage/commit) with a controllable latency, its own generation
// counter, and a SIGKILL-equivalent kill/restart that keeps the same
// address — everything the router can observe, none of the model
// cost.
type fakeReplica struct {
	t    testing.TB
	name string
	addr string

	mu      sync.Mutex
	counter uint64 // registry-style generation counter (bumps per stage)
	gen     uint64
	staged  uint64
	delay   time.Duration
	// noDetector makes /healthz report no detector loaded.
	noDetector bool
	seen       map[string]int // request ID -> inference responses served
	perGen     map[uint64]int // inference responses served per generation

	srvMu sync.Mutex
	srv   *http.Server
}

func newFakeReplica(t testing.TB, name string) *fakeReplica {
	t.Helper()
	f := &fakeReplica{
		t: t, name: name,
		counter: 1, gen: 1,
		seen:   make(map[string]int),
		perGen: make(map[uint64]int),
	}
	f.start("127.0.0.1:0")
	t.Cleanup(f.kill)
	return f
}

func (f *fakeReplica) url() string { return "http://" + f.addr }

func (f *fakeReplica) start(addr string) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		f.t.Fatalf("fake replica %s: %v", f.name, err)
	}
	f.addr = ln.Addr().String()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/attribute", f.handleInfer)
	mux.HandleFunc("/v1/detect", f.handleInfer)
	mux.HandleFunc("/healthz", f.handleHealthz)
	mux.HandleFunc("/v1/reload/stage", f.handleStage)
	mux.HandleFunc("/v1/reload/commit", f.handleCommit)
	srv := &http.Server{Handler: mux}
	f.srvMu.Lock()
	f.srv = srv
	f.srvMu.Unlock()
	go func() { _ = srv.Serve(ln) }()
}

// kill is the SIGKILL equivalent: the listener and every open
// connection die immediately, aborting in-flight responses mid-wire.
func (f *fakeReplica) kill() {
	f.srvMu.Lock()
	defer f.srvMu.Unlock()
	if f.srv != nil {
		_ = f.srv.Close()
		f.srv = nil
	}
}

// restart rebinds the same address; fresh=true models a process
// restart (the in-memory generation counter resets to 1).
func (f *fakeReplica) restart(fresh bool) {
	f.kill()
	f.mu.Lock()
	if fresh {
		f.counter, f.gen, f.staged = 1, 1, 0
	}
	f.mu.Unlock()
	f.start(f.addr)
}

func (f *fakeReplica) setDelay(d time.Duration) {
	f.mu.Lock()
	f.delay = d
	f.mu.Unlock()
}

func (f *fakeReplica) served(reqID string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seen[reqID]
}

func (f *fakeReplica) generation() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gen
}

func (f *fakeReplica) handleInfer(w http.ResponseWriter, r *http.Request) {
	var req serve.AttributeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Source == "" {
		w.WriteHeader(http.StatusUnprocessableEntity)
		_ = json.NewEncoder(w).Encode(serve.ErrorResponse{Error: "bad request body"})
		return
	}
	f.mu.Lock()
	delay := f.delay
	f.mu.Unlock()
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-r.Context().Done():
			return // hedged loser canceled mid-flight
		}
	}
	f.mu.Lock()
	gen := f.gen
	f.seen[r.Header.Get(serve.RequestIDHeader)]++
	f.perGen[gen]++
	f.mu.Unlock()
	w.Header().Set(serve.DegradeHeader, "0")
	w.Header().Set(serve.GenerationHeader, strconv.FormatUint(gen, 10))
	_ = json.NewEncoder(w).Encode(serve.AttributeResponse{
		Author: f.name, Proba: map[string]float64{f.name: 1}, ModelGeneration: gen,
	})
}

func (f *fakeReplica) handleHealthz(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	h := serve.HealthResponse{
		Status: "ok", ModelGeneration: f.gen, StagedGeneration: f.staged,
		Oracle: true, Detector: !f.noDetector,
	}
	f.mu.Unlock()
	_ = json.NewEncoder(w).Encode(h)
}

func (f *fakeReplica) handleStage(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	f.counter++
	f.staged = f.counter
	staged := f.staged
	f.mu.Unlock()
	_ = json.NewEncoder(w).Encode(serve.StageResponse{StagedGeneration: staged})
}

func (f *fakeReplica) handleCommit(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.staged == 0 {
		w.WriteHeader(http.StatusConflict)
		_ = json.NewEncoder(w).Encode(serve.ErrorResponse{Error: "no staged generation"})
		return
	}
	f.gen, f.staged = f.staged, 0
	_ = json.NewEncoder(w).Encode(serve.ReloadResponse{ModelGeneration: f.gen})
}

// newTestFleet builds n fake replicas and a synced router over them.
func newTestFleet(t *testing.T, n int, mutate func(*Config)) ([]*fakeReplica, *Router, *metrics.Registry) {
	t.Helper()
	fakes := make([]*fakeReplica, n)
	reps := make([]*Replica, n)
	client := &http.Client{}
	for i := range fakes {
		name := fmt.Sprintf("r%d", i+1)
		fakes[i] = newFakeReplica(t, name)
		reps[i] = NewReplica(name, fakes[i].url(), client)
	}
	met := metrics.NewRegistry()
	cfg := Config{
		Replicas:   reps,
		HedgeDelay: 20 * time.Millisecond,
		Metrics:    met,
		Logf:       t.Logf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rt.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	return fakes, rt, met
}

// attribute runs one request through the router with a known ID.
func attribute(t *testing.T, rt *Router, src, reqID string) (serve.AttributeResponse, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if reqID != "" {
		ctx = serve.WithRequestID(ctx, reqID)
	}
	return rt.Attribute(ctx, src)
}

// TestRouterAffinity pins cache affinity: the same source always
// lands on the same replica, and that replica is the ring owner.
func TestRouterAffinity(t *testing.T) {
	_, rt, _ := newTestFleet(t, 3, func(c *Config) { c.NoHedge = true })
	for i := 0; i < 10; i++ {
		src := fmt.Sprintf("int f%d() { return %d; }", i, i)
		want, ok := rt.ring.Owner([]byte(src))
		if !ok {
			t.Fatal("no ring owner")
		}
		for rep := 0; rep < 3; rep++ {
			resp, err := attribute(t, rt, src, "")
			if err != nil {
				t.Fatal(err)
			}
			if resp.Author != want {
				t.Fatalf("source %d served by %s, ring owner is %s", i, resp.Author, want)
			}
		}
	}
}

// TestRouterHedgeWinsOverSlowReplica makes the owner slow: the hedge
// to the next replica on the ring must answer well before the owner
// would have, and exactly one response reaches the caller.
func TestRouterHedgeWinsOverSlowReplica(t *testing.T) {
	fakes, rt, met := newTestFleet(t, 3, func(c *Config) { c.HedgeDelay = 10 * time.Millisecond })
	src := "int main() { return 42; }"
	owner, _ := rt.ring.Owner([]byte(src))
	var slow *fakeReplica
	for _, f := range fakes {
		if f.name == owner {
			slow = f
		}
	}
	slow.setDelay(2 * time.Second)

	start := time.Now()
	resp, err := attribute(t, rt, src, "hedge-test-1")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Author == owner {
		t.Fatalf("slow owner %s still answered", owner)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hedged request took %v, owner delay leaked through", elapsed)
	}
	if met.Counter("fleet_hedges_total").Value() == 0 {
		t.Error("no hedge recorded")
	}
	if met.Counter("fleet_hedge_wins_total").Value() == 0 {
		t.Error("no hedge win recorded")
	}
}

// TestRouterFailoverOnKill kills the owner: the request must still
// succeed via the next replica, with the owner marked dead; after
// restart one probe cycle restores it.
func TestRouterFailoverOnKill(t *testing.T) {
	fakes, rt, _ := newTestFleet(t, 3, func(c *Config) { c.NoHedge = true })
	src := "int g() { return 7; }"
	owner, _ := rt.ring.Owner([]byte(src))
	var victim *fakeReplica
	for _, f := range fakes {
		if f.name == owner {
			victim = f
		}
	}
	victim.kill()

	resp, err := attribute(t, rt, src, "failover-1")
	if err != nil {
		t.Fatalf("request failed with one replica down: %v", err)
	}
	if resp.Author == owner {
		t.Fatalf("dead replica %s answered", owner)
	}
	if rt.ring.IsAlive(owner) {
		t.Error("owner still in rotation after connection failure")
	}

	victim.restart(false)
	rt.ProbeAll(context.Background())
	if !rt.ring.IsAlive(owner) {
		t.Error("restarted replica not restored by probe")
	}
	resp, err = attribute(t, rt, src, "failover-2")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Author != owner {
		t.Errorf("restored owner %s not serving its keys (got %s)", owner, resp.Author)
	}
}

// TestRouterAllDead answers 503 without hanging when nothing is
// alive.
func TestRouterAllDead(t *testing.T) {
	fakes, rt, _ := newTestFleet(t, 2, func(c *Config) { c.NoHedge = true })
	for _, f := range fakes {
		f.kill()
	}
	// Two requests: the first discovers the deaths, the second sees an
	// empty ring.
	for i := 0; i < 2; i++ {
		_, err := attribute(t, rt, "int x;", fmt.Sprintf("dead-%d", i))
		var se *serve.StatusError
		if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
			t.Fatalf("request %d: err = %v, want StatusError 503", i, err)
		}
	}
	if h := rt.Health(); h.Status != "degraded" {
		t.Errorf("all-dead fleet health = %q, want degraded", h.Status)
	}
}

// TestRouterPassThroughStatus pins that a replica's HTTP verdict
// (here 422) passes through instead of being retried elsewhere.
func TestRouterPassThroughStatus(t *testing.T) {
	fakes, rt, met := newTestFleet(t, 3, func(c *Config) { c.NoHedge = true })
	_, err := attribute(t, rt, "", "passthrough-1") // empty source → 422 from the fake
	var se *serve.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusUnprocessableEntity {
		t.Fatalf("err = %v, want StatusError 422", err)
	}
	if met.Counter("fleet_failovers_total").Value() != 0 {
		t.Error("a 422 verdict triggered a failover")
	}
	for _, f := range fakes {
		if !rt.ring.IsAlive(f.name) {
			t.Errorf("replica %s marked dead by a 422", f.name)
		}
	}
}

// TestCoordinatedReloadFlipsEveryReplica drives the two-phase reload
// and checks the whole fleet lands on one new generation.
func TestCoordinatedReloadFlipsEveryReplica(t *testing.T) {
	fakes, rt, _ := newTestFleet(t, 3, nil)
	gen, err := rt.CoordinatedReload(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 {
		t.Fatalf("reload generation %d, want 2", gen)
	}
	for _, f := range fakes {
		if g := f.generation(); g != 2 {
			t.Errorf("replica %s at generation %d after reload", f.name, g)
		}
	}
	if h := rt.Health(); h.ModelGeneration != 2 {
		t.Errorf("fleet health generation %d, want 2", h.ModelGeneration)
	}
}

// TestCoordinatedReloadAbortsOnStageFault arms the stage fault point:
// the reload must abort before any replica flips, and the serving
// generation must be untouched fleet-wide.
func TestCoordinatedReloadAbortsOnStageFault(t *testing.T) {
	defer fault.Disable()
	fakes, rt, _ := newTestFleet(t, 3, nil)
	fault.Enable(7)
	fault.Set(PointReloadStage, fault.Policy{Kind: fault.KindError, Limit: 1})
	if _, err := rt.CoordinatedReload(context.Background()); err == nil {
		t.Fatal("faulted reload succeeded")
	}
	for _, f := range fakes {
		if g := f.generation(); g != 1 {
			t.Errorf("replica %s flipped to %d on an aborted reload", f.name, g)
		}
	}
	// The fault limit is spent: the retry goes through.
	gen, err := rt.CoordinatedReload(context.Background())
	if err != nil || gen != 2 {
		t.Fatalf("retry after aborted reload: gen %d, err %v", gen, err)
	}
}

// TestCoordinatedReloadTornBetweenPhases arms the commit fault point
// (the torn-reload window): everything is staged, nothing flips, and
// the retry completes the flip from the staged state.
func TestCoordinatedReloadTornBetweenPhases(t *testing.T) {
	defer fault.Disable()
	fakes, rt, _ := newTestFleet(t, 3, nil)
	fault.Enable(11)
	fault.Set(PointReloadCommit, fault.Policy{Kind: fault.KindError, Limit: 1})
	if _, err := rt.CoordinatedReload(context.Background()); err == nil {
		t.Fatal("torn reload reported success")
	}
	for _, f := range fakes {
		if g := f.generation(); g != 1 {
			t.Errorf("replica %s serving %d inside the torn window", f.name, g)
		}
	}
	gen, err := rt.CoordinatedReload(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fakes {
		if g := f.generation(); g != gen {
			t.Errorf("replica %s at %d after recovery reload to %d", f.name, g, gen)
		}
	}
}

// TestRestartedReplicaHealsToFleetGeneration is the restart-amnesia
// case: a replica comes back at generation 1 while the fleet is at 3;
// it must be driven back to 3 before rejoining the ring.
func TestRestartedReplicaHealsToFleetGeneration(t *testing.T) {
	fakes, rt, _ := newTestFleet(t, 3, func(c *Config) { c.NoHedge = true })
	for i := 0; i < 2; i++ {
		if _, err := rt.CoordinatedReload(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	src := "int h() { return 1; }"
	owner, _ := rt.ring.Owner([]byte(src))
	var victim *fakeReplica
	for _, f := range fakes {
		if f.name == owner {
			victim = f
		}
	}
	victim.kill()
	// A forward to the victim's key discovers the death.
	if _, err := attribute(t, rt, src, "heal-1"); err != nil {
		t.Fatal(err)
	}
	if rt.ring.IsAlive(victim.name) {
		t.Fatal("victim still alive after kill + forward")
	}

	victim.restart(true) // fresh process: generation counter reset to 1
	rt.ProbeAll(context.Background())
	if !rt.ring.IsAlive(victim.name) {
		t.Fatal("restarted replica not restored")
	}
	if g := victim.generation(); g != 3 {
		t.Fatalf("restored replica at generation %d, fleet at 3", g)
	}
}

// TestRouterP2CDemotion piles concurrent requests for one key on its
// slow owner until the power-of-two-choices delta trips and the
// runner-up takes the overflow.
func TestRouterP2CDemotion(t *testing.T) {
	fakes, rt, met := newTestFleet(t, 3, func(c *Config) { c.NoHedge = true })
	src := "int hot() { return 0; }"
	owner, _ := rt.ring.Owner([]byte(src))
	for _, f := range fakes {
		if f.name == owner {
			f.setDelay(400 * time.Millisecond)
		}
	}
	var wg sync.WaitGroup
	authors := make([]string, 10)
	for i := 0; i < len(authors); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := attribute(t, rt, src, fmt.Sprintf("p2c-%d", i))
			if err == nil {
				authors[i] = resp.Author
			}
		}(i)
		time.Sleep(10 * time.Millisecond) // let inflight build up in order
	}
	wg.Wait()
	if met.Counter("fleet_p2c_demotions_total").Value() == 0 {
		t.Fatal("no p2c demotion under a hot key")
	}
	spilled := 0
	for _, a := range authors {
		if a != "" && a != owner {
			spilled++
		}
	}
	if spilled == 0 {
		t.Error("no request spilled off the hot owner")
	}
}

// TestRouterStatus spot-checks the /fleet/status payload fields, and
// that every router event counter is listed in /metrics at 0 before
// the first request (New resolves them all up front).
func TestRouterStatus(t *testing.T) {
	fakes, rt, met := newTestFleet(t, 2, func(c *Config) { c.NoHedge = true })
	var text strings.Builder
	if err := met.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(text.String(), "\n")
	for _, name := range []string{
		"fleet_forwards_total", "fleet_evade_forwards_total",
		"fleet_failovers_total", "fleet_hedges_total", "fleet_hedge_wins_total",
		"fleet_gen_mismatch_total", "fleet_restores_total", "fleet_p2c_demotions_total",
		"fleet_breaker_opens_total", "fleet_breaker_halfopens_total", "fleet_breaker_closes_total",
		"fleet_breaker_rejects_total", "fleet_breaker_bypasses_total",
		"fleet_stages_total", "fleet_reloads_total",
	} {
		if !slices.Contains(lines, name+" 0") {
			t.Errorf("/metrics lacks %q before the first request:\n%s", name+" 0", text.String())
		}
	}
	if _, err := attribute(t, rt, "int s() { return 3; }", "status-1"); err != nil {
		t.Fatal(err)
	}
	st := rt.Status()
	if st.Generation != 1 || st.AliveReplicas != 2 || len(st.Replicas) != 2 {
		t.Fatalf("status = %+v", st)
	}
	if st.Forwards == 0 {
		t.Error("forwards counter not surfaced")
	}
	for i, rs := range st.Replicas {
		if rs.URL != fakes[i].url() {
			t.Errorf("replica %s URL %q, want %q", rs.Name, rs.URL, fakes[i].url())
		}
		if !rs.Alive || !rs.Oracle || !rs.Detector {
			t.Errorf("replica status %+v", rs)
		}
	}
}

// TestRouterRequestIDReachesReplica pins trace continuity at the
// router→replica hop: the caller's ID arrives verbatim.
func TestRouterRequestIDReachesReplica(t *testing.T) {
	fakes, rt, _ := newTestFleet(t, 3, func(c *Config) { c.NoHedge = true })
	src := "int id() { return 9; }"
	const reqID = "trace-xyz-000007"
	if _, err := attribute(t, rt, src, reqID); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, f := range fakes {
		total += f.served(reqID)
	}
	if total != 1 {
		t.Fatalf("request ID %q served %d times across the fleet, want exactly 1", reqID, total)
	}
}
