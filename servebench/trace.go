package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gptattr/internal/cppast"
	"gptattr/internal/cpptok"
	"gptattr/internal/featcache"
	"gptattr/internal/fleet"
	"gptattr/internal/semstats"
	"gptattr/internal/serve"
	"gptattr/internal/stylometry"
)

// replayRequests bounds how much of a workload's sequence the traced
// run replays in-process through each layer.
const replayRequests = 600

// span is one timed call into a layer. Spans of one request share
// ReqID; Parent is the ID of the span that caused it (0 = none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	ReqID  string `json:"req_id,omitempty"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record appends a finished span and returns its ID.
func (t *tracer) record(name, reqID string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, ReqID: reqID,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// begin opens a span whose end is set later by finish.
func (t *tracer) begin(name, reqID string, parent int) int {
	now := time.Now()
	return t.record(name, reqID, parent, now, now)
}

func (t *tracer) finish(id int) {
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name, reqID string, parent int, fn func()) {
	start := time.Now()
	fn()
	t.record(name, reqID, parent, start, time.Now())
}

// micros returns the durations of every span called name, in µs.
func (t *tracer) micros(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}

// selfTimes reports, per layer (the span name up to its first dot),
// the span count and total self time: each span's duration minus the
// part its children cover.
func (t *tracer) selfTimes(w io.Writer) {
	t.mu.Lock()
	childTime := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent > 0 {
			childTime[s.Parent] += s.End - s.Start
		}
	}
	type agg struct {
		n    int
		self int64
	}
	layers := map[string]*agg{}
	for _, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		a := layers[layer]
		if a == nil {
			a = &agg{}
			layers[layer] = a
		}
		a.n++
		a.self += max(0, s.End-s.Start-childTime[s.ID])
	}
	t.mu.Unlock()
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-12s %8s %12s %12s\n", "layer", "spans", "self_ms", "self_us/span")
	for _, n := range names {
		a := layers[n]
		fmt.Fprintf(w, "%-12s %8d %12.3f %12.2f\n", n, a.n, float64(a.self)/1e6, float64(a.self)/1e3/float64(a.n))
	}
}

// layerInputs are the per-layer numbers that do not come from spans.
type layerInputs struct {
	batchSize      float64
	cacheGets      int
	cacheHits      int
	entryKB        float64
	degraded       int
	replayed       int
	depthGrowth    float64
	hedgeFrac      float64
	failovers      float64
	untracedP50Ms  float64
	tracedP50Ms    float64
	untracedCPUUs  float64 // serving CPU per request of the untraced pass
	tracedCPUUs    float64
	liveReloadsMs  []float64 // client-timed reloads of the live router, if any
	inProcReloadMs []float64
}

// layerMetrics computes every perLayer metric from the spans and inputs.
func layerMetrics(t *tracer, in layerInputs) map[string]float64 {
	p50 := func(name string) float64 { return quantile(t.micros(name), 0.5) }
	ms := func(name string) float64 { return p50(name) / 1e3 }
	frac := func(a, b int) float64 { return float64(a) / float64(max(b, 1)) }
	reloadMs := quantile(in.inProcReloadMs, 0.5)
	if len(in.liveReloadsMs) > 0 {
		reloadMs = quantile(in.liveReloadsMs, 0.5)
	}
	analyze := t.micros("semstats.analyze")
	analyzeMax := 0.0
	for _, d := range analyze {
		analyzeMax = max(analyzeMax, d/1e3)
	}
	return map[string]float64{
		"serve.batch_wait_us":           p50("serve.batcher") - p50("stylometry.direct"),
		"serve.batch_size":              in.batchSize,
		"serve.cpu_us_per_req":          in.untracedCPUUs,
		"serve.handler_us":              p50("serve.handler"),
		"http.overhead_us":              in.untracedP50Ms*1e3 - p50("serve.handler"),
		"serve.decode_us":               p50("serve.decode"),
		"serve.encode_us":               p50("serve.encode"),
		"serve.registry_load_ms":        ms("serve.registry_load"),
		"serve.reload_ms":               ms("serve.reload"),
		"featcache.get_us":              p50("featcache.get"),
		"featcache.put_us":              p50("featcache.put"),
		"featcache.hit_frac":            frac(in.cacheHits, in.cacheGets),
		"featcache.entry_kb":            in.entryKB,
		"stylometry.extract_us":         p50("stylometry.extract"),
		"stylometry.extract_p99_us":     quantile(t.micros("stylometry.extract"), 0.99),
		"stylometry.degraded_frac":      frac(in.degraded, in.replayed),
		"cpptok.scan_us":                p50("cpptok.scan"),
		"cppast.parse_us":               p50("cppast.parse"),
		"semstats.analyze_us":           quantile(analyze, 0.5),
		"semstats.analyze_max_ms":       analyzeMax,
		"semstats.depth_growth":         in.depthGrowth,
		"attrib.oracle_us":              p50("attrib.oracle"),
		"attrib.detect_us":              p50("attrib.detect"),
		"fleet.forward_us":              p50("fleet.forward") - p50("fleet.direct"),
		"fleet.hedge_frac":              in.hedgeFrac,
		"fleet.failovers":               in.failovers,
		"fleet.reload_ms":               reloadMs,
		"trace.overhead_p50_us":         (in.tracedP50Ms - in.untracedP50Ms) * 1e3,
		"trace.overhead_cpu_us_per_req": in.tracedCPUUs - in.untracedCPUUs,
	}
}

// replay runs the first replayRequests of the workload's sequence
// in-process through each layer's public functions, with spans around
// every call, and fills the inputs that do not come from spans. live
// is the traced end-to-end pass, whose stack is still running.
func (b *bench) replay(t *tracer, live *runResult, in *layerInputs) error {
	list := b.plan.measured[:min(replayRequests, len(b.plan.measured))]
	in.replayed = len(list)
	reg, err := serve.NewRegistry(b.fx.ModelsA)
	if err != nil {
		return err
	}
	for i := 0; i < 5; i++ {
		var rerr error
		t.timed("serve.registry_load", "", 0, func() { _, rerr = serve.NewRegistry(b.fx.ModelsA) })
		if rerr != nil {
			return rerr
		}
		t.timed("serve.reload", "", 0, func() { rerr = reg.Load() })
		if rerr != nil {
			return rerr
		}
	}
	if err := b.replayLayers(t, reg.Current(), list, in); err != nil {
		return err
	}
	if err := b.replayConcurrent(t, list); err != nil {
		return err
	}
	in.depthGrowth = depthGrowth(t)
	if in.entryKB, err = entryKB(list); err != nil {
		return err
	}
	return b.replayFleet(t, live, in)
}

// replayLayers walks each request through decode, scan, parse,
// semantic analysis, extraction, the feature cache, scoring and encode,
// one layer call at a time.
func (b *bench) replayLayers(t *tracer, models *serve.Models, list []request, in *layerInputs) error {
	cache, err := featcache.New(featcache.Options{}) // attrserve's default size
	if err != nil {
		return err
	}
	// Warm the cache as the server's warm-up did.
	for _, r := range b.plan.warmup {
		f, err := stylometry.Extract(r.src)
		if err != nil {
			return err
		}
		if _, hit := cache.Get(r.src); !hit {
			t.timed("featcache.put", r.id, 0, func() { cache.Put(r.src, f) })
		}
	}
	ss := semstats.NewScratch()
	arena := cppast.NewArena()
	var toks []cpptok.Token
	for _, r := range list {
		root := t.begin("replay", r.id, 0)
		body, err := json.Marshal(serve.AttributeRequest{Source: r.src})
		if err != nil {
			return err
		}
		var req serve.AttributeRequest
		t.timed("serve.decode", r.id, root, func() { err = json.Unmarshal(body, &req) })
		if err != nil {
			return err
		}
		t.timed("cpptok.scan", r.id, root, func() { toks, _ = cpptok.ScanInto(req.Source, toks[:0]) })
		stripped := cpptok.StripComments(toks)
		var tu *cppast.TranslationUnit
		arena.Reset()
		t.timed("cppast.parse", r.id, root, func() { tu = cppast.ParseTokens(stripped, arena) })
		t.timed("semstats.analyze", r.id, root, func() { _, err = ss.AnalyzeContext(context.Background(), tu) })
		if err != nil {
			return err
		}
		var f stylometry.Features
		t.timed("stylometry.extract", r.id, root, func() {
			f, _, err = stylometry.ExtractDegraded(context.Background(), req.Source, stylometry.DegradeNone)
		})
		if err != nil {
			return err
		}
		if b.plan.budgetMs > 0 {
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(b.plan.budgetMs)*time.Millisecond)
			var lvl stylometry.DegradeLevel
			t.timed("stylometry.extract_budget", r.id, root, func() {
				_, lvl, err = stylometry.ExtractDegraded(ctx, req.Source, stylometry.DegradeNone)
			})
			cancel()
			if err == nil && lvl > 0 {
				in.degraded++
			}
		}
		in.cacheGets++
		var hit bool
		t.timed("featcache.get", r.id, root, func() { _, hit = cache.Get(req.Source) })
		if hit {
			in.cacheHits++
		} else {
			t.timed("featcache.put", r.id, root, func() { cache.Put(req.Source, f) })
		}
		var resp any
		if r.endpoint == "attribute" {
			t.timed("attrib.oracle", r.id, root, func() {
				proba, best := models.Oracle.ProbaFeatures(f)
				resp = serve.AttributeResponse{Author: best, Proba: proba, ModelGeneration: models.Generation}
			})
		} else {
			t.timed("attrib.detect", r.id, root, func() {
				verdict, conf := models.Detector.DetectFeatures(f)
				resp = serve.DetectResponse{ChatGPT: verdict, Confidence: conf, ModelGeneration: models.Generation}
			})
		}
		var buf bytes.Buffer
		t.timed("serve.encode", r.id, root, func() { err = json.NewEncoder(&buf).Encode(resp) })
		if err != nil {
			return err
		}
		t.finish(root)
	}
	return nil
}

// concurrently runs fn over list from two callers, as the two
// closed-loop connections do.
func concurrently(list []request, fn func(r request) error) error {
	var next atomic.Int64
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(list) || errs[c] != nil {
					return
				}
				errs[c] = fn(list[i])
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// replayConcurrent times, with two concurrent callers, direct
// extraction, extraction through a batcher with attrserve's defaults,
// and the whole in-process HTTP handler.
func (b *bench) replayConcurrent(t *tracer, list []request) error {
	err := concurrently(list, func(r request) error {
		var err error
		t.timed("stylometry.direct", r.id, 0, func() {
			_, _, err = stylometry.ExtractDegraded(context.Background(), r.src, stylometry.DegradeNone)
		})
		return err
	})
	if err != nil {
		return err
	}
	batcher := serve.NewBatcher(serve.BatchConfig{})
	err = concurrently(list, func(r request) error {
		var err error
		t.timed("serve.batcher", r.id, 0, func() { _, _, err = batcher.ExtractDegraded(context.Background(), r.src) })
		return err
	})
	batcher.Close()
	if err != nil {
		return err
	}

	// The handler runs over the same stack attrserve builds by default.
	reg, err := serve.NewRegistry(b.fx.ModelsA)
	if err != nil {
		return err
	}
	cache, err := featcache.New(featcache.Options{})
	if err != nil {
		return err
	}
	hb := serve.NewBatcher(serve.BatchConfig{Cache: cache, Brownout: serve.NewBrownout(serve.BrownoutConfig{})})
	defer hb.Close()
	srv, err := serve.New(serve.Config{Registry: reg, Batcher: hb})
	if err != nil {
		return err
	}
	h := srv.Handler()
	call := func(r request) (int, time.Time, time.Time) {
		body, _ := json.Marshal(serve.AttributeRequest{Source: r.src})
		req := httptest.NewRequest(http.MethodPost, "/v1/"+r.endpoint, bytes.NewReader(body))
		req.Header.Set(serve.RequestIDHeader, r.id)
		if b.plan.budgetMs > 0 {
			req.Header.Set(serve.BudgetHeader, strconv.Itoa(b.plan.budgetMs))
		}
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		return rec.Code, start, time.Now()
	}
	if err := concurrently(b.plan.warmup, func(r request) error {
		if code, _, _ := call(r); code != http.StatusOK {
			return fmt.Errorf("in-process warm-up %s: status %d", r.id, code)
		}
		return nil
	}); err != nil {
		return err
	}
	return concurrently(list, func(r request) error {
		code, start, end := call(r)
		t.record("serve.handler", r.id, 0, start, end)
		if code != http.StatusOK {
			return fmt.Errorf("in-process %s %s: status %d", r.endpoint, r.id, code)
		}
		return nil
	})
}

// depthGrowth times semantic analysis of a nested-if program at depth
// n and 2n and returns the ratio of the medians.
func depthGrowth(t *tracer) float64 {
	const n = 800
	var med [2]float64
	for k, d := range []int{n, 2 * n} {
		tu := cppast.MustParse(nestedIf(d, "x"))
		name := fmt.Sprintf("depth-%d", d)
		var ds []float64
		for i := 0; i < 3; i++ {
			start := time.Now()
			_, _ = semstats.AnalyzeContext(context.Background(), tu) // no budget: cannot fail
			end := time.Now()
			t.record("semstats.analyze_depth", name, 0, start, end)
			ds = append(ds, float64(end.Sub(start)))
		}
		med[k] = quantile(ds, 0.5)
	}
	return med[1] / med[0]
}

// entryKB estimates the heap one featcache entry holds: the live heap
// growth from filling a fresh cache with the replay's distinct sources.
func entryKB(list []request) (float64, error) {
	seen := map[string]bool{}
	var srcs []string
	for _, r := range list {
		if !seen[r.src] {
			seen[r.src] = true
			srcs = append(srcs, r.src)
		}
	}
	before := settledHeap()
	cache, err := featcache.New(featcache.Options{})
	if err != nil {
		return 0, err
	}
	for _, s := range srcs {
		f, err := stylometry.Extract(s)
		if err != nil {
			return 0, err
		}
		cache.Put(s, f)
	}
	after := settledHeap()
	runtime.KeepAlive(cache)
	return (after - before) / float64(len(srcs)) / 1024, nil
}

// settledHeap returns the live heap in bytes once the extraction
// scratch pools are empty: a pooled object survives one collection in
// the victim cache, so it takes two to free it. Without the second, a
// deep hostile source's scratch counted against the cache entries and
// the estimate went negative.
func settledHeap() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// replayFleet times in-process router forwards against the live
// replicas (warm-up sources, so every replica answers from its cache)
// next to direct calls to each source's owning replica, then reads the
// router's hedge and failover counts and times coordinated reloads.
// For routed, hedges, failovers and reload times come from the live
// attrrouter instead.
func (b *bench) replayFleet(t *tracer, live *runResult, in *layerInputs) error {
	var reps []*fleet.Replica
	byName := map[string]*fleet.Replica{}
	ring := fleet.NewRing(fleet.DefaultVnodes)
	for i, c := range live.stk.replica {
		r := fleet.NewReplica(fmt.Sprintf("r%d", i+1), "http://"+c.addr, nil)
		reps = append(reps, r)
		byName[r.Name] = r
		ring.Add(r.Name)
	}
	rt, err := fleet.New(fleet.Config{Replicas: reps})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := rt.Sync(ctx); err != nil {
		return err
	}
	rt.Start()
	defer rt.Close()
	for _, r := range b.plan.warmup {
		t.timed("fleet.forward", r.id, 0, func() {
			if r.endpoint == "attribute" {
				_, err = rt.Attribute(ctx, r.src)
			} else {
				_, err = rt.Detect(ctx, r.src)
			}
		})
		if err != nil {
			return fmt.Errorf("router replay %s: %w", r.id, err)
		}
		body, _ := json.Marshal(serve.AttributeRequest{Source: r.src})
		owner, _ := ring.Owner([]byte(r.src))
		var code int
		t.timed("fleet.direct", r.id, 0, func() { code, _, err = byName[owner].Forward(ctx, r.endpoint, r.id, body) })
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("direct replay %s: status %d: %v", r.id, code, err)
		}
	}
	st := rt.Status()
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := rt.CoordinatedReload(ctx); err != nil {
			return err
		}
		end := time.Now()
		t.record("fleet.reload", "", 0, start, end)
		in.inProcReloadMs = append(in.inProcReloadMs, float64(end.Sub(start))/1e6)
	}
	if live.stk.router != nil {
		if err := getJSON(live.stk.url+"/fleet/status", &st); err != nil {
			return err
		}
		for _, r := range live.reloads {
			in.liveReloadsMs = append(in.liveReloadsMs, float64(r.took)/1e6)
		}
	}
	in.hedgeFrac = float64(st.Hedges) / float64(max(st.Forwards, 1))
	in.failovers = float64(st.Failovers)
	return nil
}

// batchSize reads batched_requests_total / batches_total summed over
// the live replicas' /metrics.
func batchSize(st *stack) (float64, error) {
	var reqs, batches float64
	for _, c := range st.replica {
		resp, err := http.Get("http://" + c.addr + "/metrics")
		if err != nil {
			return 0, err
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close() // fully read; nothing left to report
		if err != nil {
			return 0, err
		}
		for _, line := range strings.Split(string(body), "\n") {
			name, val, _ := strings.Cut(line, " ")
			v, _ := strconv.ParseFloat(val, 64)
			switch name {
			case "batched_requests_total":
				reqs += v
			case "batches_total":
				batches += v
			}
		}
	}
	if batches == 0 {
		return 0, fmt.Errorf("replicas report no batches")
	}
	return reqs / batches, nil
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }() // read-only body
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
