package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"gptattr/internal/featcache"
)

// benchHandler is the replica stack attrserve builds by default (an
// in-memory feature cache, the default worker pool) over the ladder
// fixture.
func benchHandler(b *testing.B) http.Handler {
	b.Helper()
	reg, err := NewRegistry(ladderDir(b))
	if err != nil {
		b.Fatal(err)
	}
	cache, err := featcache.New(featcache.Options{})
	if err != nil {
		b.Fatal(err)
	}
	bt := NewBatcher(BatchConfig{Cache: cache})
	b.Cleanup(bt.Close)
	s, err := New(Config{Registry: reg, Batcher: bt})
	if err != nil {
		b.Fatal(err)
	}
	return s.Handler()
}

// serveOne posts body to /v1/attribute on even i and /v1/detect on odd
// i, through the whole handler, and fails on anything but a 200.
func serveOne(b *testing.B, h http.Handler, i int, body []byte) {
	path := "/v1/attribute"
	if i%2 == 1 {
		path = "/v1/detect"
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		b.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
	}
}

// BenchmarkServeCold is one cache-missing request through the replica
// handler: decode, extraction, a cache insert, scoring and encode,
// alternating the two inference endpoints. Each op serves a source no
// earlier op sent (a fixture source with a numbered comment).
func BenchmarkServeCold(b *testing.B) {
	h := benchHandler(b)
	bodies := make([][]byte, b.N)
	for i := range bodies {
		src := fixHuman.Samples[i%len(fixHuman.Samples)].Source + "\n// request " + strconv.Itoa(i) + "\n"
		bodies[i], _ = json.Marshal(AttributeRequest{Source: src})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i, body := range bodies {
		serveOne(b, h, i, body)
	}
}

// BenchmarkServeHit is one request whose features the cache holds,
// the routed workload's case: decode, a cache hit answered at
// admission, scoring and encode, alternating the two endpoints over
// 32 warm sources.
func BenchmarkServeHit(b *testing.B) {
	h := benchHandler(b)
	bodies := make([][]byte, 32)
	for i := range bodies {
		bodies[i], _ = json.Marshal(AttributeRequest{Source: fixHuman.Samples[i%len(fixHuman.Samples)].Source})
		serveOne(b, h, 0, bodies[i])
		serveOne(b, h, 1, bodies[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOne(b, h, i, bodies[i%len(bodies)])
	}
}

// BenchmarkRegistryLoad is one model generation read from disk, what
// every replica start and every reload pays: the six ladder files
// decoded and validated, and each oracle rung's answer table built.
func BenchmarkRegistryLoad(b *testing.B) {
	r, err := NewRegistry(ladderDir(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Load(); err != nil {
			b.Fatal(err)
		}
	}
}
