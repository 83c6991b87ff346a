package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gptattr/internal/featcache"
)

// newTestServer stands up the full stack over the shared fixture
// models. Returns the httptest server; callers defer ts.Close and
// b.Close themselves when they need drain semantics, otherwise cleanup
// is registered.
func newTestServer(t *testing.T, bcfg BatchConfig) (*httptest.Server, *Server, *Batcher, *Registry) {
	t.Helper()
	r, err := NewRegistry(modelDir(t))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(bcfg)
	s, err := New(Config{Registry: r, Batcher: b, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); b.Close() })
	return ts, s, b, r
}

// tryPostJSON is the goroutine-safe request helper; postJSON wraps it
// with Fatal for use on the test goroutine.
func tryPostJSON(url string, body any) (*http.Response, []byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return nil, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	return resp, out, nil
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	resp, out, err := tryPostJSON(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestServerAttributeAndDetect(t *testing.T) {
	ts, _, _, _ := newTestServer(t, BatchConfig{QueueDepth: 64, Workers: 2})

	resp, body := postJSON(t, ts.URL+"/v1/attribute", AttributeRequest{Source: sampleSource(t, 0)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("attribute status %d: %s", resp.StatusCode, body)
	}
	var ar AttributeResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Author == "" || ar.ModelGeneration != 1 {
		t.Errorf("attribute response: %+v", ar)
	}
	var sum float64
	for _, p := range ar.Proba {
		sum += p
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("proba sums to %f", sum)
	}
	if _, ok := ar.Proba[ar.Author]; !ok {
		t.Errorf("predicted author %q missing from proba %v", ar.Author, ar.Proba)
	}

	resp, body = postJSON(t, ts.URL+"/v1/detect", AttributeRequest{Source: sampleSource(t, 1)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect status %d: %s", resp.StatusCode, body)
	}
	var dr DetectResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Confidence < 0 || dr.Confidence > 1 {
		t.Errorf("confidence %f outside [0,1]", dr.Confidence)
	}
}

func TestServerRequestValidation(t *testing.T) {
	ts, _, _, _ := newTestServer(t, BatchConfig{QueueDepth: 8})

	cases := []struct {
		name   string
		do     func() (*http.Response, error)
		status int
	}{
		{"GET on attribute", func() (*http.Response, error) { return http.Get(ts.URL + "/v1/attribute") }, http.StatusMethodNotAllowed},
		{"GET on reload", func() (*http.Response, error) { return http.Get(ts.URL + "/v1/reload") }, http.StatusMethodNotAllowed},
		{"bad JSON", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/attribute", "application/json", strings.NewReader("{"))
		}, http.StatusBadRequest},
		{"empty source", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/attribute", "application/json", strings.NewReader(`{"source":""}`))
		}, http.StatusBadRequest},
		{"unextractable source", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/detect", "application/json", strings.NewReader(`{"source":"  \n\t  "}`))
		}, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := c.do()
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.status {
				body, _ := io.ReadAll(resp.Body)
				t.Errorf("status %d, want %d (%s)", resp.StatusCode, c.status, body)
			}
			var er ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err == nil && er.Error == "" {
				t.Error("error response without error field")
			}
		})
	}
}

func TestServerBodyLimit(t *testing.T) {
	r, err := NewRegistry(modelDir(t))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(BatchConfig{QueueDepth: 8})
	s, err := New(Config{Registry: r, Batcher: b, MaxBodyBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); b.Close() })

	big, _ := json.Marshal(AttributeRequest{Source: strings.Repeat("x", 4096)})
	resp, err := http.Post(ts.URL+"/v1/attribute", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want 413", resp.StatusCode)
	}
}

func TestServerHealthzAndMetrics(t *testing.T) {
	ts, _, _, reg := newTestServer(t, BatchConfig{QueueDepth: 8, Workers: 2})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || !h.Oracle || !h.Detector {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, h)
	}

	// Three attribute calls, then the metrics page must account for
	// exactly them.
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/attribute", AttributeRequest{Source: sampleSource(t, i)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("attribute %d: %d %s", i, resp.StatusCode, body)
		}
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"attribute_requests_total 3",
		"attribute_ok_total 3",
		"attribute_latency_count 3",
		"model_generation 1",
		"batches_total ",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}

	// After a reload, the load-time gauge reads that reload's duration
	// in whole milliseconds, rounded up.
	if resp, body := postJSON(t, ts.URL+"/v1/reload", struct{}{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d %s", resp.StatusCode, body)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := (reg.LoadTime() + time.Millisecond - 1) / time.Millisecond
	for _, want := range []string{
		"model_generation 2\n",
		fmt.Sprintf("model_load_ms %d\n", ms),
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics missing %q after a reload:\n%s", want, text)
		}
	}
	if ms < 1 {
		t.Errorf("model_load_ms %d after a reload, want at least 1", ms)
	}
}

// TestServerMetricsFeatcacheWarmth: /metrics exports the batcher's
// feature-cache counters, so a repeated source shows up as a hit, and
// the size gauges, so the one cached vector shows up with its bytes.
func TestServerMetricsFeatcacheWarmth(t *testing.T) {
	cache, err := featcache.New(featcache.Options{MaxEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts, _, _, _ := newTestServer(t, BatchConfig{QueueDepth: 16, Workers: 1, Cache: cache})
	src := sampleSource(t, 0)
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/attribute", AttributeRequest{Source: src})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("attribute %d: %d %s", i, resp.StatusCode, body)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"featcache_hits_total 1\n",
		"featcache_misses_total 1\n",
		"featcache_disk_hits_total 0\n",
		"featcache_evictions_total 0\n",
		"featcache_entries 1\n",
		fmt.Sprintf("featcache_bytes %d\n", cache.Stats().Bytes),
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestServerSaturationOverHTTP drives the admission contract through
// the HTTP layer: with the only worker pinned and the queue full,
// exactly the overflow requests see 429 + Retry-After, and every
// admitted request completes when the pin is released.
func TestServerSaturationOverHTTP(t *testing.T) {
	const K = 3
	ex := newBlockingExtractor()
	ts, s, b, _ := newTestServer(t, BatchConfig{Workers: 1, QueueDepth: K, extractFn: level0(ex.fn)})

	src := sampleSource(t, 0)
	codes := make(chan int, 32)
	do := func() {
		resp, _, err := tryPostJSON(ts.URL+"/v1/attribute", AttributeRequest{Source: src})
		if err != nil {
			codes <- -1
			return
		}
		codes <- resp.StatusCode
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); do() }() // enters extraction, blocks
	<-ex.entered
	for i := 0; i < K; i++ { // fill the queue
		wg.Add(1)
		go func() { defer wg.Done(); do() }()
	}
	waitQueueLen(t, b, K)

	// Overflow: synchronous requests must bounce with 429 immediately.
	const N = 4
	for i := 0; i < N; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/attribute", AttributeRequest{Source: src})
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("overflow %d: status %d (%s)", i, resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("429 without Retry-After")
		}
	}

	ex.release <- struct{}{}
	for i := 0; i < K; i++ {
		<-ex.entered
		ex.release <- struct{}{}
	}
	wg.Wait()
	close(codes)
	okCount := 0
	for c := range codes {
		if c == http.StatusOK {
			okCount++
		}
	}
	if okCount != 1+K {
		t.Errorf("admitted OKs = %d, want %d", okCount, 1+K)
	}
	if got := s.met.Counter("rejected_total").Value(); got != N {
		t.Errorf("rejected_total = %d, want %d", got, N)
	}
}

// TestServerReloadUnderLoad fires attribute requests continuously
// while models hot-swap via POST /v1/reload; every request must
// succeed — a reload never drops in-flight or subsequent traffic.
func TestServerReloadUnderLoad(t *testing.T) {
	ts, _, _, _ := newTestServer(t, BatchConfig{QueueDepth: 128, Workers: 2})

	src := sampleSource(t, 0)
	stop := make(chan struct{})
	errc := make(chan error, 64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, body, err := tryPostJSON(ts.URL+"/v1/attribute", AttributeRequest{Source: src})
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d: %s", resp.StatusCode, body)
				}
				if err != nil {
					select {
					case errc <- err:
					default:
					}
					return
				}
			}
		}()
	}
	gens := map[uint64]bool{}
	for i := 0; i < 5; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/reload", struct{}{})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reload %d: %d %s", i, resp.StatusCode, body)
		}
		var rr ReloadResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		gens[rr.ModelGeneration] = true
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatalf("request failed during reload: %v", err)
	default:
	}
	if len(gens) != 5 {
		t.Errorf("saw %d distinct generations, want 5", len(gens))
	}
}

// TestServerDeadline pins the per-request timeout: with extraction
// wedged, a request must come back 504 once its deadline passes.
func TestServerDeadline(t *testing.T) {
	ex := newBlockingExtractor()
	r, err := NewRegistry(modelDir(t))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(BatchConfig{Workers: 1, QueueDepth: 8, extractFn: level0(ex.fn)})
	s, err := New(Config{Registry: r, Batcher: b, Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		go func() { // unwedge so Close can drain
			for range ex.entered {
				ex.release <- struct{}{}
			}
		}()
		ex.release <- struct{}{}
		b.Close()
	})

	// Wedge the only worker.
	wedgeSrc := sampleSource(t, 0)
	wedged := make(chan int, 1)
	go func() {
		resp, _, err := tryPostJSON(ts.URL+"/v1/detect", AttributeRequest{Source: wedgeSrc})
		if err != nil {
			wedged <- -1
			return
		}
		wedged <- resp.StatusCode
	}()
	<-ex.entered

	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/attribute", AttributeRequest{Source: sampleSource(t, 1)})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, body)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("deadline response took %v", d)
	}
	// Both the wedged request and the queued one exceed the 50ms
	// deadline. The wedged one is answered on its own connection, so
	// wait for its answer before reading the counter.
	if code := <-wedged; code != http.StatusGatewayTimeout {
		t.Errorf("wedged request: status %d, want 504", code)
	}
	if got := s.met.Counter("deadline_exceeded_total").Value(); got != 2 {
		t.Errorf("deadline_exceeded_total = %d, want 2", got)
	}
}

func TestServerDegradedWithoutModels(t *testing.T) {
	r, err := NewRegistry(t.TempDir()) // empty: no models
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

	resp, _ := postJSON(t, ts.URL+"/v1/attribute", AttributeRequest{Source: "int main(){}"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("attribute without oracle: %d, want 503", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/detect", AttributeRequest{Source: "int main(){}"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("detect without detector: %d, want 503", resp.StatusCode)
	}
	// Health still answers: the process is alive, just degraded.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", hr.StatusCode)
	}
}
