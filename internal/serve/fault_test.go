package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gptattr/internal/fault"
	"gptattr/internal/stylometry"
)

// logCapture collects batcher log lines for assertions.
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (l *logCapture) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logCapture) all() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.lines...)
}

func (l *logCapture) containing(sub string) []string {
	var out []string
	for _, ln := range l.all() {
		if strings.Contains(ln, sub) {
			out = append(out, ln)
		}
	}
	return out
}

// TestRequestIDOnEveryResponse pins the traceability contract: every
// response — success, client error, saturation — carries X-Request-Id,
// and error bodies echo the same ID in request_id.
func TestRequestIDOnEveryResponse(t *testing.T) {
	ts, _, _, _ := newTestServer(t, BatchConfig{QueueDepth: 16, Workers: 1})

	// Success path: header present and unique per request.
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/attribute", AttributeRequest{Source: sampleSource(t, i)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("attribute %d: %d %s", i, resp.StatusCode, body)
		}
		id := resp.Header.Get("X-Request-Id")
		if id == "" {
			t.Fatalf("attribute %d: missing X-Request-Id", i)
		}
		if seen[id] {
			t.Fatalf("request ID %q issued twice", id)
		}
		seen[id] = true
	}

	// Error path: body request_id matches the header.
	resp, body := postJSON(t, ts.URL+"/v1/detect", AttributeRequest{Source: ""})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty source: %d %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("X-Request-Id")
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if id == "" || er.RequestID != id {
		t.Fatalf("error body request_id %q != header %q", er.RequestID, id)
	}
}

// TestSaturationRejectionTraceable saturates a depth-1 queue behind a
// wedged worker and asserts the 429 carries the request ID in header,
// body, and the batcher's own log line — one grep ties all three.
func TestSaturationRejectionTraceable(t *testing.T) {
	ex := newBlockingExtractor()
	logs := &logCapture{}
	ts, _, b, _ := newTestServer(t, BatchConfig{
		Workers: 1, QueueDepth: 1,
		extractFn: level0(ex.fn), Logf: logs.logf,
	})

	src := sampleSource(t, 0)
	done := make(chan error, 2)
	post := func() {
		resp, body, err := tryPostJSON(ts.URL+"/v1/attribute", AttributeRequest{Source: src})
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, body)
		}
		done <- err
	}
	// First request wedges inside extraction; second fills the queue.
	go post()
	<-ex.entered
	go post()
	waitQueueLen(t, b, 1)

	// Third request must be rejected 429, traceably.
	resp, body := postJSON(t, ts.URL+"/v1/attribute", AttributeRequest{Source: src})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request: %d %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("X-Request-Id")
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if id == "" || er.RequestID != id {
		t.Fatalf("429 body request_id %q != header %q", er.RequestID, id)
	}
	if got := logs.containing(id); len(got) == 0 {
		t.Fatalf("no batcher log line mentions rejected request %s; logs: %q", id, logs.all())
	}

	// Drain: release both wedged extractions; the admitted requests finish.
	ex.release <- struct{}{}
	ex.release <- struct{}{}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("admitted request %d failed: %v", i, err)
		}
	}
}

// TestAdmitFaultDegradesTo429 arms the admission fault point and
// asserts the injected failure is indistinguishable from saturation to
// the client: 429 with Retry-After and a request_id, then recovery.
func TestAdmitFaultDegradesTo429(t *testing.T) {
	defer fault.Disable()
	ts, _, _, _ := newTestServer(t, BatchConfig{QueueDepth: 16, Workers: 1})

	src := sampleSource(t, 0)
	fault.Enable(11)
	fault.Set(PointAdmit, fault.Policy{Kind: fault.KindError, Limit: 1})

	resp, body := postJSON(t, ts.URL+"/v1/attribute", AttributeRequest{Source: src})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("admission fault: %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.RequestID == "" {
		t.Errorf("429 body missing request_id: %s", body)
	}

	// Limit reached: the very next request succeeds.
	resp, body = postJSON(t, ts.URL+"/v1/attribute", AttributeRequest{Source: src})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-fault request: %d %s, want 200", resp.StatusCode, body)
	}
}

// TestBatchPanicAnsweredNotDropped panics the extraction function for
// one job and asserts the contract: the job is answered (ErrInternal →
// 503), the worker survives, and the next job extracts normally.
func TestBatchPanicAnsweredNotDropped(t *testing.T) {
	logs := &logCapture{}
	var calls atomic.Int32
	b := NewBatcher(BatchConfig{
		Workers: 1, QueueDepth: 16,
		Logf: logs.logf,
		extractFn: level0(func(string) (stylometry.Features, error) {
			if calls.Add(1) == 1 {
				panic("synthetic extraction defect")
			}
			return stylometry.Features{"ok": 1}, nil
		}),
	})
	defer b.Close()

	ctx := WithRequestID(context.Background(), "test-panic-1")
	_, _, err := b.ExtractDegraded(ctx, "int main() {}")
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("panicked extraction error = %v, want ErrInternal", err)
	}
	if !strings.Contains(err.Error(), "synthetic extraction defect") {
		t.Fatalf("error %v does not carry the panic value", err)
	}
	if got := logs.containing("test-panic-1"); len(got) == 0 {
		t.Fatalf("extraction-failure log does not name the request; logs: %q", logs.all())
	}

	// The worker survived: the next job extracts normally.
	f, _, err := b.ExtractDegraded(context.Background(), "int main() {}")
	if err != nil || f["ok"] != 1 {
		t.Fatalf("extraction after panic: f=%v err=%v", f, err)
	}
}

// TestBatchFaultRetriedTransparently arms a transient extraction fault
// below stylometry's retry budget: callers never see it.
func TestBatchFaultRetriedTransparently(t *testing.T) {
	defer fault.Disable()
	fault.Enable(12)
	fault.Set(stylometry.PointExtract, fault.Policy{Kind: fault.KindError, Limit: stylometry.ExtractRetries - 1})

	b := NewBatcher(BatchConfig{QueueDepth: 16, Workers: 1})
	defer b.Close()
	f, _, err := b.ExtractDegraded(context.Background(), "int main() { return 0; }\n")
	if err != nil {
		t.Fatalf("transient extraction faults leaked to caller: %v", err)
	}
	if len(f) == 0 {
		t.Fatal("no features extracted")
	}
	if st := fault.Stats()[stylometry.PointExtract]; st.Fires != uint64(stylometry.ExtractRetries-1) {
		t.Fatalf("fires = %d, want %d", st.Fires, stylometry.ExtractRetries-1)
	}
}

// TestBatchInjectedPanicRetried arms a panic-kind fault under the
// budget: the injected panic is contained AND retried, so the request
// still succeeds.
func TestBatchInjectedPanicRetried(t *testing.T) {
	defer fault.Disable()
	fault.Enable(13)
	fault.Set(stylometry.PointExtract, fault.Policy{Kind: fault.KindPanic, Limit: stylometry.ExtractRetries - 1})

	b := NewBatcher(BatchConfig{QueueDepth: 16, Workers: 1})
	defer b.Close()
	if _, _, err := b.ExtractDegraded(context.Background(), "int main() { return 0; }\n"); err != nil {
		t.Fatalf("injected panic under retry budget leaked: %v", err)
	}
}

// TestExhaustedExtractionFaultAnswers503 arms the extraction fault
// point with no limit, so every attempt fails and the retry budget runs
// out. That is a server fault, not a verdict on the source: the client
// gets 503 with Retry-After (never 422 "source rejected"), and
// batch_failures_total counts it once. Then the server recovers.
func TestExhaustedExtractionFaultAnswers503(t *testing.T) {
	defer fault.Disable()
	for _, kind := range []fault.Kind{fault.KindPanic, fault.KindError} {
		t.Run(kind.String(), func(t *testing.T) {
			ts, s, _, _ := newTestServer(t, BatchConfig{QueueDepth: 16, Workers: 1})
			failures := s.met.Counter("batch_failures_total")
			src := sampleSource(t, 0)

			fault.Enable(15)
			fault.Set(stylometry.PointExtract, fault.Policy{Kind: kind})
			resp, body := postJSON(t, ts.URL+"/v1/attribute", AttributeRequest{Source: src})
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("exhausted %v fault: %d %s, want 503", kind, resp.StatusCode, body)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Error("503 missing Retry-After")
			}
			if got := failures.Value(); got != 1 {
				t.Errorf("batch_failures_total = %d, want 1", got)
			}
			if st := fault.Stats()[stylometry.PointExtract]; st.Fires != stylometry.ExtractRetries {
				t.Errorf("fires = %d, want the whole retry budget %d", st.Fires, stylometry.ExtractRetries)
			}

			fault.Disable()
			resp, body = postJSON(t, ts.URL+"/v1/attribute", AttributeRequest{Source: src})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("after the fault lifts: %d %s, want 200", resp.StatusCode, body)
			}
		})
	}
}

// TestReloadFaultKeepsServing arms the registry-load fault point: the
// reload fails 500 but the previous generation keeps serving — no
// half-swapped state, no downtime.
func TestReloadFaultKeepsServing(t *testing.T) {
	defer fault.Disable()
	ts, _, _, reg := newTestServer(t, BatchConfig{QueueDepth: 16, Workers: 1})

	genBefore := reg.Current().Generation
	fault.Enable(14)
	fault.Set(PointRegistryLoad, fault.Policy{Kind: fault.KindError, Limit: 1})

	resp, body := postJSON(t, ts.URL+"/v1/reload", struct{}{})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("faulted reload: %d %s, want 500", resp.StatusCode, body)
	}
	if got := reg.Current().Generation; got != genBefore {
		t.Fatalf("generation moved %d -> %d across a failed reload", genBefore, got)
	}

	// Still serving on the old generation.
	resp, body = postJSON(t, ts.URL+"/v1/attribute", AttributeRequest{Source: sampleSource(t, 0)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("attribute after failed reload: %d %s", resp.StatusCode, body)
	}
	var ar AttributeResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.ModelGeneration != genBefore {
		t.Fatalf("served generation %d != surviving generation %d", ar.ModelGeneration, genBefore)
	}

	// Limit reached: the next reload succeeds and bumps the generation.
	resp, body = postJSON(t, ts.URL+"/v1/reload", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovery reload: %d %s", resp.StatusCode, body)
	}
	if got := reg.Current().Generation; got != genBefore+1 {
		t.Fatalf("recovery generation = %d, want %d", got, genBefore+1)
	}
}
