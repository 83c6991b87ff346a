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
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gptattr/internal/serve"
	"gptattr/internal/serve/metrics"
)

// scriptedReplica serves /healthz at generation 1 and answers every
// inference request with infer, so a test controls the exact bytes
// and headers a replica's 200 carries.
func scriptedReplica(t *testing.T, infer http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(serve.HealthResponse{Status: "ok", ModelGeneration: 1, Oracle: true, Detector: true})
	})
	mux.HandleFunc("/v1/attribute", infer)
	mux.HandleFunc("/v1/detect", infer)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// routerServer fronts the given replica URLs with a synced Router
// behind a serve.Server, returning the router's URL and the registry
// both report into.
func routerServer(t *testing.T, urls ...string) (string, *metrics.Registry) {
	t.Helper()
	reps := make([]*Replica, len(urls))
	for i, u := range urls {
		reps[i] = NewReplica(fmt.Sprintf("r%d", i+1), u, nil)
	}
	met := metrics.NewRegistry()
	rt, err := New(Config{Replicas: reps, NoHedge: true, Metrics: met, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Backend: rt, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL, met
}

// postRaw posts body to url with an optional request ID and returns
// the response and its body.
func postRaw(t *testing.T, method, url, reqID string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if reqID != "" {
		req.Header.Set(serve.RequestIDHeader, reqID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, rb
}

// TestRouterPassesReplicaBytesThrough pins that the router does not
// re-encode a replica's answer: a valid body with non-canonical
// spacing and a field no response type declares reaches the client
// byte for byte, with the replica's generation and degrade headers.
func TestRouterPassesReplicaBytesThrough(t *testing.T) {
	const answer = "{ \"author\" :\"r9\",  \"proba\":{\"r9\":1.0},\n \"model_generation\": 1, \"extra\": [1, 2] }\n"
	rep := scriptedReplica(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(serve.GenerationHeader, "1")
		w.Header().Set(serve.DegradeHeader, "0")
		_, _ = io.WriteString(w, answer)
	})
	url, _ := routerServer(t, rep.URL)
	for _, ep := range []string{"attribute", "detect"} {
		resp, body := postRaw(t, http.MethodPost, url+"/v1/"+ep, "", []byte(`{"source":"int x;"}`))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", ep, resp.StatusCode, body)
		}
		if string(body) != answer {
			t.Errorf("%s: router answered %q, want the replica's bytes %q", ep, body, answer)
		}
		if g := resp.Header.Get(serve.GenerationHeader); g != "1" {
			t.Errorf("%s: %s = %q, want 1", ep, serve.GenerationHeader, g)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", ep, ct)
		}
	}
}

// TestRouterRejectsBadGenerationHeader: a replica 200 whose
// X-Model-Generation is missing or garbled cannot pass the
// mixed-generation check, so the router answers 502 instead of
// passing it through.
func TestRouterRejectsBadGenerationHeader(t *testing.T) {
	for _, gen := range []string{"", "one", "-1", "1.5"} {
		t.Run(fmt.Sprintf("gen=%q", gen), func(t *testing.T) {
			rep := scriptedReplica(t, func(w http.ResponseWriter, r *http.Request) {
				if gen != "" {
					w.Header().Set(serve.GenerationHeader, gen)
				}
				w.Header().Set(serve.DegradeHeader, "0")
				_, _ = io.WriteString(w, `{"author":"a","proba":{"a":1},"model_generation":1}`+"\n")
			})
			url, _ := routerServer(t, rep.URL)
			resp, body := postRaw(t, http.MethodPost, url+"/v1/attribute", "", []byte(`{"source":"int x;"}`))
			if resp.StatusCode != http.StatusBadGateway {
				t.Fatalf("status %d, want 502: %s", resp.StatusCode, body)
			}
			var er serve.ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil || !strings.Contains(er.Error, "bad replica response") {
				t.Errorf("error body %s, want a bad replica response envelope", body)
			}
		})
	}
}

// TestRouterCountsHeaderGenMismatch: a replica answering from a
// generation other than the fleet's (reloaded behind the router's
// back) is still served, and counted, from the header alone.
func TestRouterCountsHeaderGenMismatch(t *testing.T) {
	rep := scriptedReplica(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(serve.GenerationHeader, "7")
		w.Header().Set(serve.DegradeHeader, "0")
		_, _ = io.WriteString(w, `{"author":"a","proba":{"a":1},"model_generation":7}`+"\n")
	})
	url, met := routerServer(t, rep.URL)
	resp, body := postRaw(t, http.MethodPost, url+"/v1/attribute", "", []byte(`{"source":"int x;"}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if n := met.Counter("fleet_gen_mismatch_total").Value(); n != 1 {
		t.Errorf("fleet_gen_mismatch_total = %d, want 1", n)
	}
	if g := resp.Header.Get(serve.GenerationHeader); g != "7" {
		t.Errorf("%s = %q, want the replica's 7", serve.GenerationHeader, g)
	}
}

// TestRouterPassesDegradeLevel: a replica's degraded answer reaches
// the client degraded in header and body, and the router counts it in
// its own attribute_degraded_total.
func TestRouterPassesDegradeLevel(t *testing.T) {
	rep := scriptedReplica(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(serve.GenerationHeader, "1")
		w.Header().Set(serve.DegradeHeader, "2")
		_, _ = io.WriteString(w, `{"author":"a","proba":{"a":1},"degrade_level":2,"model_generation":1}`+"\n")
	})
	url, met := routerServer(t, rep.URL)
	resp, body := postRaw(t, http.MethodPost, url+"/v1/attribute", "", []byte(`{"source":"int x;"}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get(serve.DegradeHeader); h != "2" {
		t.Errorf("%s = %q, want 2", serve.DegradeHeader, h)
	}
	var got serve.AttributeResponse
	if err := json.Unmarshal(body, &got); err != nil || got.DegradeLevel != 2 {
		t.Errorf("body %s: degrade_level %d (err %v), want 2", body, got.DegradeLevel, err)
	}
	if n := met.Counter("attribute_degraded_total").Value(); n != 1 {
		t.Errorf("attribute_degraded_total = %d, want 1", n)
	}
}

// TestRequestBodyErrorsMatchReplica: a request the router cannot
// decode gets the same status and the same JSON error envelope, byte
// for byte, as the replica itself gives it.
func TestRequestBodyErrorsMatchReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	rep := startE2EReplica(t, "b1")
	router, _ := routerServer(t, rep.url())
	overLimit := []byte(`{"source":"` + strings.Repeat("x", 1<<20) + `"}`)
	for _, c := range []struct {
		name   string
		method string
		body   []byte
		status int
	}{
		{"wrong method", http.MethodGet, nil, http.StatusMethodNotAllowed},
		{"malformed JSON", http.MethodPost, []byte(`{"source":`), http.StatusBadRequest},
		{"over the limit", http.MethodPost, overLimit, http.StatusRequestEntityTooLarge},
		{"empty source", http.MethodPost, []byte(`{"source":""}`), http.StatusBadRequest},
		{"trailing bytes", http.MethodPost, []byte(`{"source":"int x;"} {}`), http.StatusBadRequest},
	} {
		t.Run(c.name, func(t *testing.T) {
			reqID := "body-" + strings.ReplaceAll(c.name, " ", "-")
			rresp, rbody := postRaw(t, c.method, router+"/v1/attribute", reqID, c.body)
			dresp, dbody := postRaw(t, c.method, rep.url()+"/v1/attribute", reqID, c.body)
			if rresp.StatusCode != c.status || dresp.StatusCode != c.status {
				t.Fatalf("status router %d, replica %d, want %d", rresp.StatusCode, dresp.StatusCode, c.status)
			}
			if !bytes.Equal(rbody, dbody) {
				t.Errorf("router envelope %s != replica envelope %s", rbody, dbody)
			}
			var er serve.ErrorResponse
			if err := json.Unmarshal(rbody, &er); err != nil || er.Error == "" || er.RequestID != reqID {
				t.Errorf("envelope %s: want an error and request_id %q", rbody, reqID)
			}
		})
	}
}

// TestReplicaClientReusesConnections pins the transport sizing: 16
// concurrent clients sending several rounds through the router open
// at most 16 connections to the replica. net/http's default pool
// keeps only 2 idle connections per host, which would dial afresh
// for most forwards of every round after the first.
func TestReplicaClientReusesConnections(t *testing.T) {
	const clients, rounds = 16, 4
	var dials atomic.Int64
	var mu sync.Mutex
	arrived, gate := 0, make(chan struct{})
	rep := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			_ = json.NewEncoder(w).Encode(serve.HealthResponse{Status: "ok", ModelGeneration: 1, Oracle: true})
			return
		}
		// Hold every answer until the whole round has arrived, so the
		// round's forwards overlap and each holds its own connection.
		mu.Lock()
		wait := gate
		if arrived++; arrived == clients {
			close(gate)
			arrived, gate = 0, make(chan struct{})
		}
		mu.Unlock()
		select {
		case <-wait:
		case <-time.After(5 * time.Second):
		}
		w.Header().Set(serve.GenerationHeader, "1")
		w.Header().Set(serve.DegradeHeader, "0")
		_, _ = io.WriteString(w, `{"author":"a","proba":{"a":1},"model_generation":1}`+"\n")
	}))
	rep.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	rep.Start()
	t.Cleanup(rep.Close)
	rt, err := New(Config{Replicas: []*Replica{NewReplica("r1", rep.URL, nil)}, NoHedge: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				_, err := rt.Attribute(context.Background(), fmt.Sprintf("int f%d;", c))
				errs <- err
			}(c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
	if n := dials.Load(); n > clients {
		t.Errorf("replica saw %d new connections for %d concurrent clients over %d rounds, want at most %d",
			n, clients, rounds, clients)
	}
}
