package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gptattr/internal/arena"
)

// newEvadeServer stands up a server with the evade endpoints enabled.
// The registry is empty (no models): every test below drives the job
// manager through the runFn hook, so searches are stubs and the suite
// pins transport semantics, not search quality.
func newEvadeServer(t *testing.T, opts EvadeOptions, timeout time.Duration) (*httptest.Server, *Server) {
	t.Helper()
	r, err := NewRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(BatchConfig{QueueDepth: 4})
	s, err := New(Config{Registry: r, Batcher: b, Timeout: timeout, Evade: &opts})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.CloseEvade(); b.Close() })
	return ts, s
}

// blockingEvadeRun mirrors the arena manager tests: each search
// signals its start and blocks until released, answering truncated
// best-so-far when its context dies first.
func blockingEvadeRun() (run arena.RunFunc, started chan string, release chan struct{}) {
	started = make(chan string, 64)
	release = make(chan struct{})
	run = func(ctx context.Context, spec arena.JobSpec) (*arena.Result, error) {
		started <- spec.Source
		select {
		case <-release:
			return &arena.Result{Success: true, Source: spec.Source, Predicted: "A999"}, nil
		case <-ctx.Done():
			return &arena.Result{Source: spec.Source, Truncated: true}, nil
		}
	}
	return run, started, release
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func decodeEvadeJob(t *testing.T, body []byte) EvadeJobResponse {
	t.Helper()
	var jr EvadeJobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatalf("bad evade response %s: %v", body, err)
	}
	return jr
}

// TestEvadeSubmitAndPoll is the async happy path: 202 + job ID, then
// poll to done. The runFn also proves the request's budget and depth
// were clamped to the server's caps.
func TestEvadeSubmitAndPoll(t *testing.T) {
	specs := make(chan arena.JobSpec, 1)
	ts, _ := newEvadeServer(t, EvadeOptions{
		MaxBudget: 50, MaxDepth: 3,
		runFn: func(ctx context.Context, spec arena.JobSpec) (*arena.Result, error) {
			specs <- spec
			return &arena.Result{Success: true, Source: "evaded", Predicted: "A007"}, nil
		},
	}, 5*time.Second)

	resp, body := postJSON(t, ts.URL+"/v1/evade", EvadeRequest{
		Source: "int main(){}", TrueAuthor: "A001", Strategy: "beam",
		Budget: 10000, MaxDepth: 99, Seed: 7,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	jr := decodeEvadeJob(t, body)
	if jr.JobID == "" || evadeTerminal(jr.State) {
		t.Fatalf("async submit response: %+v", jr)
	}

	spec := <-specs
	if spec.Budget != 50 || spec.MaxDepth != 3 {
		t.Errorf("caps not applied: budget=%d depth=%d", spec.Budget, spec.MaxDepth)
	}
	if spec.Strategy != arena.StrategyBeam || spec.Seed != 7 {
		t.Errorf("spec not forwarded: %+v", spec)
	}

	resp, body = getJSON(t, ts.URL+"/v1/evade/status?id="+jr.JobID+"&wait=true")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status poll %d: %s", resp.StatusCode, body)
	}
	jr = decodeEvadeJob(t, body)
	if jr.State != "done" || jr.Result == nil || !jr.Result.Success || jr.Result.Predicted != "A007" {
		t.Fatalf("finished job: %+v", jr)
	}
}

// TestEvadeWaitInline pins the blocking form: "wait": true answers 200
// with the finished result in one round trip.
func TestEvadeWaitInline(t *testing.T) {
	ts, _ := newEvadeServer(t, EvadeOptions{
		runFn: func(ctx context.Context, spec arena.JobSpec) (*arena.Result, error) {
			return &arena.Result{Success: true, Source: spec.Source, Trace: []string{"rename-snake"}}, nil
		},
	}, 5*time.Second)

	resp, body := postJSON(t, ts.URL+"/v1/evade", EvadeRequest{
		Source: "int main(){}", TrueAuthor: "A001", Wait: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait submit status %d: %s", resp.StatusCode, body)
	}
	jr := decodeEvadeJob(t, body)
	if jr.State != "done" || jr.Result == nil || len(jr.Result.Trace) != 1 {
		t.Fatalf("wait response: %+v", jr)
	}
}

// TestEvadeExactSaturation pins the admission contract over HTTP: with
// MaxRunning searches live and MaxQueued more accepted, every further
// submit bounces 429 + Retry-After, and releasing the searches drains
// every accepted job to done.
func TestEvadeExactSaturation(t *testing.T) {
	run, started, release := blockingEvadeRun()
	ts, s := newEvadeServer(t, EvadeOptions{MaxRunning: 1, MaxQueued: 2, runFn: run}, 5*time.Second)

	var ids []string
	submit := func(i int) (*http.Response, EvadeJobResponse) {
		resp, body := postJSON(t, ts.URL+"/v1/evade", EvadeRequest{
			Source: fmt.Sprintf("int main(){} // %d", i), TrueAuthor: "A001",
		})
		var jr EvadeJobResponse
		if resp.StatusCode == http.StatusAccepted {
			jr = decodeEvadeJob(t, body)
		}
		return resp, jr
	}
	// One running...
	resp, jr := submit(0)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	ids = append(ids, jr.JobID)
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("search never started")
	}
	// ...two queued: all accepted.
	for i := 1; i <= 2; i++ {
		resp, jr := submit(i)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("queue slot %d refused: %d", i, resp.StatusCode)
		}
		ids = append(ids, jr.JobID)
	}
	// Exact N+1: 429 with Retry-After, counted in rejected_total.
	const overflow = 3
	for i := 0; i < overflow; i++ {
		resp, _ := submit(100 + i)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("overflow submit %d: status %d, want 429", i, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("429 without Retry-After")
		}
	}
	if got := s.met.Counter("rejected_total").Value(); got != overflow {
		t.Errorf("rejected_total = %d, want %d", got, overflow)
	}
	// Release: every accepted job completes; capacity frees again.
	close(release)
	for _, id := range ids {
		resp, body := getJSON(t, ts.URL+"/v1/evade/status?id="+id+"&wait=true")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("drain poll %s: %d %s", id, resp.StatusCode, body)
		}
		if jr := decodeEvadeJob(t, body); jr.State != "done" {
			t.Fatalf("job %s after release: %+v", id, jr)
		}
	}
	if resp, _ := submit(200); resp.StatusCode != http.StatusAccepted {
		t.Errorf("post-drain submit: %d, want 202", resp.StatusCode)
	}
}

// TestEvadeWaitDeadline pins the 504 path: a blocking wait on a wedged
// search dies with the request deadline, and the job itself survives.
func TestEvadeWaitDeadline(t *testing.T) {
	run, started, release := blockingEvadeRun()
	defer close(release)
	ts, s := newEvadeServer(t, EvadeOptions{MaxRunning: 1, MaxQueued: 2, runFn: run}, 100*time.Millisecond)

	resp, body := postJSON(t, ts.URL+"/v1/evade", EvadeRequest{
		Source: "int main(){}", TrueAuthor: "A001", Wait: true,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("wedged wait: status %d, want 504 (%s)", resp.StatusCode, body)
	}
	if got := s.met.Counter("deadline_exceeded_total").Value(); got != 1 {
		t.Errorf("deadline_exceeded_total = %d, want 1", got)
	}
	<-started
	// The waiter died, not the job: its ID is unknown to the 504'd
	// client, but the manager still runs it — a later poll through a
	// fresh status request must find one live job.
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, body := getJSON(t, ts.URL+"/v1/evade/status?id=e1")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll after waiter death: %d %s", resp.StatusCode, body)
		}
		jr := decodeEvadeJob(t, body)
		if jr.State == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job not running after waiter death: %+v", jr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEvadeGracefulDrain pins shutdown: draining mid-search completes
// the running job with a truncated best-so-far result, cancels queued
// jobs, and refuses later submits with 503.
func TestEvadeGracefulDrain(t *testing.T) {
	run, started, release := blockingEvadeRun()
	defer close(release)
	ts, s := newEvadeServer(t, EvadeOptions{MaxRunning: 1, MaxQueued: 2, runFn: run}, 5*time.Second)

	resp, body := postJSON(t, ts.URL+"/v1/evade", EvadeRequest{Source: "int main(){}", TrueAuthor: "A001"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	running := decodeEvadeJob(t, body).JobID
	<-started
	resp, body = postJSON(t, ts.URL+"/v1/evade", EvadeRequest{Source: "int f(){}", TrueAuthor: "A001"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", resp.StatusCode)
	}
	queued := decodeEvadeJob(t, body).JobID

	s.CloseEvade()

	resp, body = getJSON(t, ts.URL+"/v1/evade/status?id="+running)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drained running job: %d %s", resp.StatusCode, body)
	}
	if jr := decodeEvadeJob(t, body); jr.State != "done" || jr.Result == nil || !jr.Result.Truncated {
		t.Fatalf("mid-search job after drain: %+v", jr)
	}
	resp, body = getJSON(t, ts.URL+"/v1/evade/status?id="+queued)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drained queued job: %d %s", resp.StatusCode, body)
	}
	if jr := decodeEvadeJob(t, body); jr.State != "canceled" {
		t.Fatalf("queued job after drain: %+v", jr)
	}
	resp, body = postJSON(t, ts.URL+"/v1/evade", EvadeRequest{Source: "int g(){}", TrueAuthor: "A001"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: %d, want 503 (%s)", resp.StatusCode, body)
	}
}

// TestEvadeNoOracle pins the production runFn's degraded mode: with no
// model loaded the job is accepted and fails cleanly, quoting the 503
// sentinel's message.
func TestEvadeNoOracle(t *testing.T) {
	ts, _ := newEvadeServer(t, EvadeOptions{}, 5*time.Second) // nil runFn: the real search path
	resp, body := postJSON(t, ts.URL+"/v1/evade", EvadeRequest{
		Source: "int main(){}", TrueAuthor: "A001", Wait: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit without oracle: %d %s", resp.StatusCode, body)
	}
	jr := decodeEvadeJob(t, body)
	if jr.State != "failed" || !strings.Contains(jr.Error, "no attribution model") {
		t.Fatalf("oracle-less job: %+v", jr)
	}
}

func TestEvadeValidation(t *testing.T) {
	ts, _ := newEvadeServer(t, EvadeOptions{
		runFn: func(ctx context.Context, spec arena.JobSpec) (*arena.Result, error) {
			return &arena.Result{}, nil
		},
	}, 5*time.Second)

	cases := []struct {
		name   string
		do     func() (*http.Response, []byte)
		status int
	}{
		{"GET on evade", func() (*http.Response, []byte) { return getJSON(t, ts.URL+"/v1/evade") },
			http.StatusMethodNotAllowed},
		{"empty source", func() (*http.Response, []byte) {
			return postJSON(t, ts.URL+"/v1/evade", EvadeRequest{TrueAuthor: "A001"})
		}, http.StatusBadRequest},
		{"missing true author", func() (*http.Response, []byte) {
			return postJSON(t, ts.URL+"/v1/evade", EvadeRequest{Source: "int main(){}"})
		}, http.StatusBadRequest},
		{"unknown strategy", func() (*http.Response, []byte) {
			return postJSON(t, ts.URL+"/v1/evade", EvadeRequest{Source: "int main(){}", TrueAuthor: "A001", Strategy: "dfs"})
		}, http.StatusBadRequest},
		{"POST on status", func() (*http.Response, []byte) {
			return postJSON(t, ts.URL+"/v1/evade/status?id=e1", struct{}{})
		}, http.StatusMethodNotAllowed},
		{"status without id", func() (*http.Response, []byte) { return getJSON(t, ts.URL+"/v1/evade/status") },
			http.StatusBadRequest},
		{"unknown job", func() (*http.Response, []byte) { return getJSON(t, ts.URL+"/v1/evade/status?id=e999") },
			http.StatusNotFound},
	}
	for _, tc := range cases {
		resp, body := tc.do()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
		}
	}
}

// TestEvadeDisabledByDefault: without Config.Evade the endpoints do
// not exist.
func TestEvadeDisabledByDefault(t *testing.T) {
	r, err := NewRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(BatchConfig{QueueDepth: 4})
	s, err := New(Config{Registry: r, Batcher: b})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); b.Close() })
	resp, _ := postJSON(t, ts.URL+"/v1/evade", EvadeRequest{Source: "int main(){}", TrueAuthor: "A001"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evade on a non-evade server: %d, want 404", resp.StatusCode)
	}
	// CloseEvade on a server that never enabled it is a safe no-op.
	s.CloseEvade()
}
