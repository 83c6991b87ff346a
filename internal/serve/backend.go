package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"gptattr/internal/arena"
	"gptattr/internal/featcache"
	"gptattr/internal/serve/metrics"
	"gptattr/internal/stylometry"
)

// Backend answers inference requests on behalf of the HTTP layer.
// Server is transport-agnostic over it: the same handlers, admission
// semantics, and error envelope serve both the in-process replica
// (LocalBackend: registry + batcher) and the fleet router
// (internal/fleet: consistent-hash forwarding over N replicas).
//
// Backend errors map to HTTP statuses via Server.failBackend; a backend
// that already knows the exact status (the router passing a replica's
// answer through) wraps it in a *StatusError.
type Backend interface {
	// Infer answers one request to /v1/<endpoint> ("attribute" or
	// "detect") as encoded answer bytes, which Server writes
	// unchanged. src is the source decoded from the request; body is
	// the client's request body verbatim, so a pass-through backend
	// (the fleet router) forwards it without re-encoding.
	Infer(ctx context.Context, endpoint, src string, body []byte) (Answer, error)
	// Health reports the backend's serving state for GET /healthz.
	Health() HealthResponse
	// Reload swaps in the next model generation (POST /v1/reload,
	// SIGHUP) and returns the now-serving generation.
	Reload() (uint64, error)
	// Observe refreshes backend gauges just before GET /metrics
	// renders (queue depth, model generation, fleet size, ...).
	Observe(met *metrics.Registry)
}

// Answer is one encoded 200 inference answer: the JSON body
// (newline-terminated) and the values of its X-Degrade-Level and
// X-Model-Generation headers.
type Answer struct {
	Body       []byte
	Level      int
	Generation uint64
}

// Stager is the optional two-phase reload face of a Backend. The
// replica registry implements it so a fleet coordinator can stage a
// new model generation everywhere before any replica starts serving
// it; Server exposes it as POST /v1/reload/stage + /v1/reload/commit.
type Stager interface {
	// Stage loads the next generation without serving it, returning
	// the staged generation number.
	Stage() (uint64, error)
	// Commit atomically publishes the staged generation.
	Commit() (uint64, error)
}

// Model-absence sentinels: the endpoint's model is not loaded, so the
// request is answerable only with 503 until a reload supplies it.
var (
	ErrNoOracle   = errors.New("no attribution model loaded")
	ErrNoDetector = errors.New("no detector model loaded")
)

// LocalBackend serves inference from this process: model lookups on
// the registry's current generation, feature extraction through the
// bounded queue and its extraction workers.
type LocalBackend struct {
	reg     *Registry
	batcher *Batcher

	// evade, when EnableEvade has wired it, runs the bounded
	// asynchronous evasion jobs behind POST /v1/evade.
	evade     *arena.Manager
	evadeOpts EvadeOptions
}

// NewLocalBackend wires the in-process backend.
func NewLocalBackend(reg *Registry, b *Batcher) *LocalBackend {
	return &LocalBackend{reg: reg, batcher: b}
}

// Infer implements Backend on this process's models; the request
// body is not needed.
func (l *LocalBackend) Infer(ctx context.Context, endpoint, src string, _ []byte) (Answer, error) {
	if endpoint == "detect" {
		return l.detect(ctx, src)
	}
	return l.attribute(ctx, src)
}

// attribute runs multi-author attribution on one source. A vector
// degraded by budget expiry or brownout pressure is scored by the
// ladder rung trained on exactly its surviving feature families; the
// reported confidence is the top vote share discounted by that rung's
// out-of-bag calibration, so a degraded answer advertises how much
// trust it has actually earned.
func (l *LocalBackend) attribute(ctx context.Context, src string) (Answer, error) {
	models := l.reg.Current()
	if o, _ := models.OracleFor(stylometry.DegradeNone); o == nil {
		return Answer{}, ErrNoOracle
	}
	v, lvl, err := l.batcher.ExtractDegraded(ctx, src)
	if err != nil {
		return Answer{}, err
	}
	oracle, eff := models.OracleFor(lvl)
	proba, best := oracle.ProbaSparse(v)
	conf := proba[best]
	if c := oracle.Calibration(); c > 0 {
		conf *= c
	}
	return encodeAnswer(AttributeResponse{
		Author: best, Proba: proba, Confidence: conf,
		DegradeLevel: int(eff), Calibration: oracle.Calibration(),
		ModelGeneration: models.Generation,
	}, int(eff), models.Generation)
}

// detect runs the ChatGPT-vs-human classifier on one source. Degraded
// vectors route to the matching detector rung, same as attribute.
func (l *LocalBackend) detect(ctx context.Context, src string) (Answer, error) {
	models := l.reg.Current()
	if d, _ := models.DetectorFor(stylometry.DegradeNone); d == nil {
		return Answer{}, ErrNoDetector
	}
	v, lvl, err := l.batcher.ExtractDegraded(ctx, src)
	if err != nil {
		return Answer{}, err
	}
	detector, eff := models.DetectorFor(lvl)
	verdict, conf := detector.DetectSparse(v)
	return encodeAnswer(DetectResponse{
		ChatGPT: verdict, Confidence: conf,
		DegradeLevel: int(eff), Calibration: detector.Calibration(),
		ModelGeneration: models.Generation,
	}, int(eff), models.Generation)
}

// encodeAnswer renders a typed response as the JSON line an
// Encoder.Encode would write.
func encodeAnswer(resp any, level int, gen uint64) (Answer, error) {
	body, err := json.Marshal(resp)
	if err != nil {
		return Answer{}, &StatusError{Code: http.StatusInternalServerError, Msg: "encode answer: " + err.Error()}
	}
	return Answer{Body: append(body, '\n'), Level: level, Generation: gen}, nil
}

// Health implements Backend.
func (l *LocalBackend) Health() HealthResponse {
	m := l.reg.Current()
	h := HealthResponse{
		Status:           "ok",
		ModelGeneration:  m.Generation,
		StagedGeneration: l.reg.StagedGeneration(),
		Oracle:           m.Oracle != nil,
		Detector:         m.Detector != nil,
	}
	for lvl := stylometry.DegradeNone; lvl <= stylometry.MaxDegrade; lvl++ {
		if m.Oracles[lvl] != nil || m.Detectors[lvl] != nil {
			h.LadderRungs++
		}
	}
	if bo := l.batcher.Brownout(); bo != nil {
		h.BrownoutLevel = int(bo.Level())
	}
	return h
}

// Reload implements Backend: stage + commit in one step.
func (l *LocalBackend) Reload() (uint64, error) {
	if err := l.reg.Load(); err != nil {
		return 0, err
	}
	return l.reg.Current().Generation, nil
}

// Stage implements Stager.
func (l *LocalBackend) Stage() (uint64, error) { return l.reg.Stage() }

// Commit implements Stager.
func (l *LocalBackend) Commit() (uint64, error) { return l.reg.Commit() }

// Observe implements Backend.
func (l *LocalBackend) Observe(met *metrics.Registry) {
	met.Gauge("queue_depth").Set(int64(l.batcher.QueueLen()))
	met.Gauge("model_generation").Set(int64(l.reg.Current().Generation))
	if bo := l.batcher.Brownout(); bo != nil {
		met.Gauge("brownout_level").Set(int64(bo.Level()))
		met.Counter("brownout_steps_up_total").Raise(bo.StepsUp())
		met.Counter("brownout_steps_down_total").Raise(bo.StepsDown())
	}
	if c, ok := l.batcher.cfg.Cache.(interface{ Stats() featcache.Stats }); ok {
		st := c.Stats()
		met.Counter("featcache_hits_total").Raise(st.Hits)
		met.Counter("featcache_misses_total").Raise(st.Misses)
		met.Counter("featcache_disk_hits_total").Raise(st.DiskHits)
		met.Counter("featcache_evictions_total").Raise(st.Evictions)
		met.Gauge("featcache_entries").Set(int64(st.Entries))
		met.Gauge("featcache_bytes").Set(st.Bytes)
	}
}

// endpointMetrics holds one endpoint's metric handles.
type endpointMetrics struct {
	requests, ok *metrics.Counter
	degraded     *metrics.Counter // nil for an endpoint that never degrades
	latency      *metrics.Histogram
}

// newEndpointMetrics resolves the <endpoint>_requests_total,
// <endpoint>_ok_total and <endpoint>_latency handles, plus
// <endpoint>_degraded_total when the endpoint can answer degraded.
func newEndpointMetrics(met *metrics.Registry, endpoint string, degradable bool) endpointMetrics {
	em := endpointMetrics{
		requests: met.Counter(endpoint + "_requests_total"),
		ok:       met.Counter(endpoint + "_ok_total"),
		latency:  met.Histogram(endpoint + "_latency"),
	}
	if degradable {
		em.degraded = met.Counter(endpoint + "_degraded_total")
	}
	return em
}

// observe records one successful request's latency and count.
func (em *endpointMetrics) observe(start time.Time) {
	em.latency.Observe(time.Since(start))
	em.ok.Inc()
}
