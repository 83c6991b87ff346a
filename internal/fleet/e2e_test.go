package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gptattr/internal/fault"
	"gptattr/internal/serve"
	"gptattr/internal/serve/metrics"
	"gptattr/internal/stylometry"
)

// Chaos schedule for the fleet e2e, expressed as fault points so the
// kill/restart/reload sequence is driven by the seeded fault registry
// rather than wall-clock timing: each completed client request steps
// the schedule once, and the After thresholds decide — by request
// count, deterministically — when each event fires.
const (
	pointE2EKill    = "fleet.e2e.kill"
	pointE2ERestart = "fleet.e2e.restart"
	pointE2EReload  = "fleet.e2e.reload"
)

// e2eReplica is one real attrserve stack (registry + batcher + HTTP
// server) on a stable address, with SIGKILL-equivalent kill and
// process-style restart (fresh registry, generation back to 1). A
// middleware records every X-Request-Id the replica sees, proving
// router→replica trace continuity.
type e2eReplica struct {
	t     *testing.T
	name  string
	dir   string
	addr  string
	evade *serve.EvadeOptions // non-nil serves /v1/evade

	mu      sync.Mutex
	srv     *http.Server
	batcher *serve.Batcher
	seenIDs map[string]bool
	budgets map[string][]int64 // request ID -> X-Request-Budget-Ms values seen
}

func startE2EReplica(t *testing.T, name string) *e2eReplica {
	t.Helper()
	r := &e2eReplica{t: t, name: name, dir: modelDir(t), seenIDs: make(map[string]bool),
		budgets: make(map[string][]int64)}
	r.start("127.0.0.1:0")
	t.Cleanup(r.kill)
	return r
}

// startEvadeReplica is startE2EReplica with the adversarial arena
// enabled (small bounds, short searches).
func startEvadeReplica(t *testing.T, name string) *e2eReplica {
	t.Helper()
	r := &e2eReplica{t: t, name: name, dir: modelDir(t), seenIDs: make(map[string]bool),
		budgets: make(map[string][]int64),
		evade:   &serve.EvadeOptions{MaxRunning: 1, MaxQueued: 2, JobTimeout: 5 * time.Second}}
	r.start("127.0.0.1:0")
	t.Cleanup(r.kill)
	return r
}

func (r *e2eReplica) url() string { return "http://" + r.addr }

func (r *e2eReplica) start(addr string) {
	registry, err := serve.NewRegistry(r.dir)
	if err != nil {
		r.t.Fatalf("replica %s: %v", r.name, err)
	}
	batcher := serve.NewBatcher(serve.BatchConfig{QueueDepth: 128})
	srv, err := serve.New(serve.Config{Registry: registry, Batcher: batcher, Timeout: 15 * time.Second,
		Evade: r.evade})
	if err != nil {
		r.t.Fatalf("replica %s: %v", r.name, err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		r.t.Fatalf("replica %s: %v", r.name, err)
	}
	r.addr = ln.Addr().String()
	inner := srv.Handler()
	recorder := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if id := req.Header.Get(serve.RequestIDHeader); id != "" {
			r.mu.Lock()
			r.seenIDs[id] = true
			if ms, err := strconv.ParseInt(req.Header.Get(serve.BudgetHeader), 10, 64); err == nil {
				r.budgets[id] = append(r.budgets[id], ms)
			}
			r.mu.Unlock()
		}
		inner.ServeHTTP(w, req)
	})
	hs := &http.Server{Handler: recorder}
	r.mu.Lock()
	r.srv, r.batcher = hs, batcher
	r.mu.Unlock()
	go func() { _ = hs.Serve(ln) }()
}

// kill is the SIGKILL equivalent: listener and every open connection
// die immediately; in-flight responses are cut off mid-wire.
func (r *e2eReplica) kill() {
	r.mu.Lock()
	srv, batcher := r.srv, r.batcher
	r.srv, r.batcher = nil, nil
	r.mu.Unlock()
	if srv != nil {
		_ = srv.Close()
	}
	if batcher != nil {
		batcher.Close()
	}
}

// restart models a process restart on the same address: a fresh
// registry whose generation counter starts over at 1.
func (r *e2eReplica) restart() { r.start(r.addr) }

func (r *e2eReplica) sawID(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seenIDs[id]
}

// budgetsFor returns the X-Request-Budget-Ms values this replica saw
// for one request ID.
func (r *e2eReplica) budgetsFor(id string) []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int64(nil), r.budgets[id]...)
}

// TestFleetE2EChaos is the fleet acceptance test: a router fronting
// three real replicas under seeded closed-loop load survives a
// SIGKILL of one replica, its restart (with generation amnesia), and
// one coordinated reload — with zero client-visible failures, every
// response traced end to end by its request ID, exactly one response
// per request, and no response ever crossing a generation flip.
func TestFleetE2EChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models and runs a replica fleet")
	}
	defer fault.Disable()

	reps := []*e2eReplica{
		startE2EReplica(t, "e1"),
		startE2EReplica(t, "e2"),
		startE2EReplica(t, "e3"),
	}
	client := &http.Client{}
	handles := make([]*Replica, len(reps))
	for i, r := range reps {
		handles[i] = NewReplica(r.name, r.url(), client)
	}

	met := metrics.NewRegistry()
	rt, err := New(Config{
		Replicas:      handles,
		HedgeDelay:    150 * time.Millisecond,
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  5 * time.Second,
		Metrics:       met,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := rt.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Close()

	srv, err := serve.New(serve.Config{Backend: rt, Metrics: met, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(srv.Handler())
	defer router.Close()

	// The seeded fault storm: one replica gets probabilistic extra
	// latency (hedging fodder), and the kill/restart/reload schedule
	// fires off deterministic request-count thresholds.
	fault.Enable(1337)
	fault.Set(PointForwardReplica("e2"), fault.Policy{
		Kind: fault.KindLatency, Latency: 200 * time.Millisecond, Prob: 0.15,
	})
	fault.Set(pointE2EKill, fault.Policy{Kind: fault.KindError, After: 40, Every: 1, Limit: 1})
	fault.Set(pointE2EReload, fault.Policy{Kind: fault.KindError, After: 80, Every: 1, Limit: 1})
	fault.Set(pointE2ERestart, fault.Policy{Kind: fault.KindError, After: 120, Every: 1, Limit: 1})

	victim := reps[0]
	var killed, restarted, reloaded atomic.Bool
	reloadDone := make(chan error, 1)
	// step advances the chaos schedule; called once per completed
	// request by whichever client finishes it.
	step := func() {
		if fault.Hit(pointE2EKill) != nil && killed.CompareAndSwap(false, true) {
			t.Logf("e2e: killing replica %s", victim.name)
			victim.kill()
		}
		if fault.Hit(pointE2EReload) != nil && reloaded.CompareAndSwap(false, true) {
			t.Logf("e2e: coordinated reload")
			go func() { // reload runs concurrently with the load, like a real operator action
				_, err := rt.CoordinatedReload(ctx)
				reloadDone <- err
			}()
		}
		if fault.Hit(pointE2ERestart) != nil && restarted.CompareAndSwap(false, true) {
			t.Logf("e2e: restarting replica %s", victim.name)
			victim.restart()
		}
	}

	const (
		clients       = 4
		reqsPerClient = 50
		totalRequests = clients * reqsPerClient
	)
	type reqRecord struct {
		id        string
		status    int
		echoedID  string
		gen       uint64
		responses int
	}
	records := make([][]reqRecord, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			recs := make([]reqRecord, 0, reqsPerClient)
			for i := 0; i < reqsPerClient; i++ {
				id := fmt.Sprintf("e2e-c%d-%06d", c, i)
				endpoint := "/v1/attribute"
				if (c+i)%3 == 0 {
					endpoint = "/v1/detect"
				}
				body, _ := json.Marshal(serve.AttributeRequest{Source: sampleSource(t, c*reqsPerClient+i)})
				req, err := http.NewRequest(http.MethodPost, router.URL+endpoint, bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set("Content-Type", "application/json")
				req.Header.Set(serve.RequestIDHeader, id)
				rec := reqRecord{id: id}
				resp, err := client.Do(req)
				if err == nil {
					rec.responses++
					rec.status = resp.StatusCode
					rec.echoedID = resp.Header.Get(serve.RequestIDHeader)
					var ar serve.AttributeResponse
					var dr serve.DetectResponse
					rb, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if endpoint == "/v1/attribute" {
						if json.Unmarshal(rb, &ar) == nil {
							rec.gen = ar.ModelGeneration
						}
					} else if json.Unmarshal(rb, &dr) == nil {
						rec.gen = dr.ModelGeneration
					}
				}
				recs = append(recs, rec)
				step()
			}
			records[c] = recs
		}(c)
	}
	wg.Wait()

	if !killed.Load() || !restarted.Load() || !reloaded.Load() {
		t.Fatalf("chaos schedule incomplete: killed=%v restarted=%v reloaded=%v (load too short)",
			killed.Load(), restarted.Load(), reloaded.Load())
	}
	if err := <-reloadDone; err != nil {
		t.Fatalf("coordinated reload failed: %v", err)
	}

	// Zero client-visible failures: every one of the 200 requests got
	// exactly one 200 response, echoing its own request ID.
	failures := 0
	for c := range records {
		lastGen := uint64(0)
		for _, rec := range records[c] {
			if rec.responses != 1 || rec.status != http.StatusOK {
				failures++
				t.Errorf("request %s: %d responses, status %d", rec.id, rec.responses, rec.status)
				continue
			}
			if rec.echoedID != rec.id {
				t.Errorf("request %s echoed as %q: trace continuity broken", rec.id, rec.echoedID)
			}
			// Generation must never regress within a client (the
			// mixed-version window).
			if rec.gen < lastGen {
				t.Errorf("request %s: generation went backwards %d -> %d", rec.id, lastGen, rec.gen)
			}
			lastGen = rec.gen
			// Router→replica continuity: some replica saw this exact ID.
			seen := false
			for _, r := range reps {
				if r.sawID(rec.id) {
					seen = true
					break
				}
			}
			if !seen {
				t.Errorf("request %s never reached a replica with its own ID", rec.id)
			}
		}
	}
	if failures > 0 {
		t.Fatalf("%d of %d requests failed under chaos", failures, totalRequests)
	}

	// No response crossed a flip from the router's own accounting.
	if n := met.Counter("fleet_gen_mismatch_total").Value(); n != 0 {
		t.Errorf("%d responses disagreed with the fleet generation at dispatch", n)
	}

	// The fleet converges: all three replicas back in rotation at the
	// post-reload generation (the restarted one healed from 1 to 2).
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := rt.Status()
		if st.AliveReplicas == 3 && st.Generation == 2 {
			allHealed := true
			for _, rs := range st.Replicas {
				if rs.Generation != 2 {
					allHealed = false
				}
			}
			if allHealed {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet did not converge: %+v", st)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// And the converged fleet still serves.
	body, _ := json.Marshal(serve.AttributeRequest{Source: sampleSource(t, 3)})
	resp, err := http.Post(router.URL+"/v1/attribute", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ar serve.AttributeResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || ar.ModelGeneration != 2 {
		t.Fatalf("post-chaos request: status %d, generation %d, want 200/2", resp.StatusCode, ar.ModelGeneration)
	}
	t.Logf("e2e: %d requests, %d hedges (%d won), %d failovers, %d restores",
		totalRequests,
		met.Counter("fleet_hedges_total").Value(),
		met.Counter("fleet_hedge_wins_total").Value(),
		met.Counter("fleet_failovers_total").Value(),
		met.Counter("fleet_restores_total").Value())
}

// TestRouterPassesExtractionFailure503 arms the replica's extraction
// fault point with no limit, so the replica's retry budget runs out:
// the replica answers 503, and the router passes that 503 — with
// Retry-After and the replica's message — through to the client
// rather than reporting the source as rejected.
func TestRouterPassesExtractionFailure503(t *testing.T) {
	defer fault.Disable()
	rep := startE2EReplica(t, "r1")
	url, _ := routerServer(t, rep.url())
	body, err := json.Marshal(serve.AttributeRequest{Source: sampleSource(t, 0)})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []fault.Kind{fault.KindPanic, fault.KindError} {
		fault.Enable(16)
		fault.Set(stylometry.PointExtract, fault.Policy{Kind: kind})
		resp, rb := postRaw(t, http.MethodPost, url+"/v1/attribute", "", body)
		fault.Disable()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%v: status %d, want 503: %s", kind, resp.StatusCode, rb)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%v: 503 missing Retry-After", kind)
		}
		var er serve.ErrorResponse
		if err := json.Unmarshal(rb, &er); err != nil || !strings.Contains(er.Error, "extraction failed") {
			t.Errorf("%v: error body %s, want the replica's extraction-failure message", kind, rb)
		}
	}
	resp, rb := postRaw(t, http.MethodPost, url+"/v1/attribute", "", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after the fault lifts: status %d: %s", resp.StatusCode, rb)
	}
}
