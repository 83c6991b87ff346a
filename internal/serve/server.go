package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"gptattr/internal/serve/metrics"
)

// RequestIDHeader is the end-to-end trace header: minted at the first
// hop that sees a request without one, propagated unchanged through
// every later hop (router → replica), and echoed on every response.
const RequestIDHeader = "X-Request-Id"

// DegradeHeader reports, on every 2xx inference answer, the degrade
// level the response was computed at (0 = full fidelity; see
// stylometry.DegradeLevel). Clients and the fleet router read it to
// tell a browned-out answer from a full one without parsing the body.
const DegradeHeader = "X-Degrade-Level"

// GenerationHeader reports, on every 2xx inference answer, the model
// generation that computed it (the body's model_generation). The fleet
// router reads it for the mixed-generation check, so it can pass the
// replica's body through without decoding it.
const GenerationHeader = "X-Model-Generation"

// BudgetHeader carries the client's remaining time budget in whole
// milliseconds. Each hop clamps its own per-request deadline to the
// smaller of its configured timeout and this budget, then forwards the
// shrunken remainder — so a 200ms client budget is never stretched to
// a replica's 10s default by crossing the router.
const BudgetHeader = "X-Request-Budget-Ms"

// Config wires a Server together.
type Config struct {
	// Registry supplies the current model generation (required unless
	// Backend is set).
	Registry *Registry
	// Batcher runs feature extraction (required unless Backend is set).
	Batcher *Batcher
	// Backend overrides the default local registry+batcher backend;
	// the fleet router plugs in here.
	Backend Backend
	// Metrics receives request counters and latency histograms; nil
	// creates a private registry.
	Metrics *metrics.Registry
	// Timeout is the per-request deadline (default 10s). Clients hold
	// the other end via their own context; whichever expires first
	// wins.
	Timeout time.Duration
	// MaxBodyBytes bounds request bodies (default 1MiB).
	MaxBodyBytes int64
	// MaxInflight bounds concurrently served requests; overflow
	// answers 429. 0 leaves admission to the backend (the replica's
	// bounded extraction queue); the router sets it because it has no
	// queue of its own.
	MaxInflight int
	// Evade, when non-nil, enables the adversarial-evasion endpoints
	// (POST /v1/evade, GET /v1/evade/status) on the default local
	// backend with these bounds. A Backend that implements Evader
	// (the fleet router; a pre-wired LocalBackend) serves them
	// regardless.
	Evade *EvadeOptions
}

// Server is the HTTP attribution service: transport plumbing from
// Core, inference from a pluggable Backend.
type Server struct {
	core    *Core
	backend Backend
	evader  Evader // nil unless the backend serves /v1/evade
	mux     *http.ServeMux

	// Metric handles resolved once in New, so the request path does no
	// registry lookups.
	inflight                 *metrics.Gauge
	attribute, detect, evade endpointMetrics
}

// AttributeRequest is the body of POST /v1/attribute and /v1/detect.
type AttributeRequest struct {
	// Source is the C++ source body to analyse.
	Source string `json:"source"`
}

// AttributeResponse answers POST /v1/attribute. DegradeLevel and
// Calibration describe graceful degradation: the level the features
// were computed at (also in X-Degrade-Level) and the serving model's
// training-time out-of-bag accuracy (0 = uncalibrated legacy model).
// Confidence is the top vote share discounted by that calibration.
type AttributeResponse struct {
	Author          string             `json:"author"`
	Proba           map[string]float64 `json:"proba"`
	Confidence      float64            `json:"confidence,omitempty"`
	DegradeLevel    int                `json:"degrade_level,omitempty"`
	Calibration     float64            `json:"calibration,omitempty"`
	ModelGeneration uint64             `json:"model_generation"`
}

// DetectResponse answers POST /v1/detect. Confidence keeps its
// original meaning (the ChatGPT vote share); DegradeLevel and
// Calibration mirror AttributeResponse.
type DetectResponse struct {
	ChatGPT         bool    `json:"chatgpt"`
	Confidence      float64 `json:"confidence"`
	DegradeLevel    int     `json:"degrade_level,omitempty"`
	Calibration     float64 `json:"calibration,omitempty"`
	ModelGeneration uint64  `json:"model_generation"`
}

// ErrorResponse is the body of every non-2xx answer. RequestID echoes
// the X-Request-Id header so clients that only keep bodies can still
// quote the ID when reporting a 429/504 saturation incident.
type ErrorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// HealthResponse answers GET /healthz.
type HealthResponse struct {
	Status          string `json:"status"`
	ModelGeneration uint64 `json:"model_generation"`
	// StagedGeneration is the loaded-but-not-yet-serving generation
	// (0 = nothing staged); the fleet coordinator polls it between
	// the stage and commit phases of a coordinated reload.
	StagedGeneration uint64 `json:"staged_generation,omitempty"`
	Oracle           bool   `json:"oracle"`
	Detector         bool   `json:"detector"`
	// LadderRungs counts loaded degrade-ladder levels (1 = legacy
	// single-model mode, 3 = full fallback ladder).
	LadderRungs int `json:"ladder_rungs,omitempty"`
	// BrownoutLevel is the overload controller's current forced degrade
	// floor (0 = full fidelity).
	BrownoutLevel int `json:"brownout_level,omitempty"`
}

// ReloadResponse answers POST /v1/reload and /v1/reload/commit.
type ReloadResponse struct {
	ModelGeneration uint64 `json:"model_generation"`
}

// StageResponse answers POST /v1/reload/stage.
type StageResponse struct {
	StagedGeneration uint64 `json:"staged_generation"`
}

// New builds the server over cfg.Backend, or over a LocalBackend when
// only Registry and Batcher are given.
func New(cfg Config) (*Server, error) {
	backend := cfg.Backend
	if backend == nil {
		if cfg.Registry == nil || cfg.Batcher == nil {
			return nil, fmt.Errorf("serve: Registry and Batcher (or a Backend) are required")
		}
		lb := NewLocalBackend(cfg.Registry, cfg.Batcher)
		if cfg.Evade != nil {
			lb.EnableEvade(*cfg.Evade)
		}
		backend = lb
	}
	core := NewCore(cfg.Metrics, cfg.Timeout, cfg.MaxBodyBytes, cfg.MaxInflight)
	met := core.Metrics()
	s := &Server{
		core: core, backend: backend, mux: http.NewServeMux(),
		inflight:  met.Gauge("inflight"),
		attribute: newEndpointMetrics(met, "attribute", true),
		detect:    newEndpointMetrics(met, "detect", true),
	}
	s.mux.HandleFunc("/v1/attribute", s.handleAttribute)
	s.mux.HandleFunc("/v1/detect", s.handleDetect)
	s.mux.HandleFunc("/v1/reload", s.handleReload)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	if _, ok := backend.(Stager); ok {
		s.mux.HandleFunc("/v1/reload/stage", s.handleStage)
		s.mux.HandleFunc("/v1/reload/commit", s.handleCommit)
	}
	if ev, ok := backend.(Evader); ok && ev.EvadeEnabled() {
		s.evader = ev
		s.evade = newEndpointMetrics(met, "evade", false)
		s.mux.HandleFunc("/v1/evade", s.handleEvade)
		s.mux.HandleFunc("/v1/evade/status", s.handleEvadeStatus)
	}
	if cfg.Batcher != nil {
		// Both counters count dispatched extractions (a worker takes
		// one source at a time, so their ratio is 1); the names stay so
		// dashboards and load tools that read them keep working.
		batches, batched := met.Counter("batches_total"), met.Counter("batched_requests_total")
		cfg.Batcher.onExtract = func() {
			batches.Inc()
			batched.Inc()
		}
	}
	return s, nil
}

// Handler returns the routing handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the metrics registry the server reports into.
func (s *Server) Metrics() *metrics.Registry { return s.core.Metrics() }

// Core exposes the shared transport plumbing (tests and the router
// binary reuse its helpers).
func (s *Server) Core() *Core { return s.core }

// handleInference is the shared endpoint body: count, admit, decode,
// get the encoded answer from the backend, write it unchanged.
func (s *Server) handleInference(w http.ResponseWriter, r *http.Request, em *endpointMetrics, endpoint string) {
	em.requests.Inc()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	start := time.Now()

	reqID := s.core.Begin(w, r)
	if !s.core.Admit(w, reqID) {
		return
	}
	defer s.core.Release()
	src, body, ok := s.core.DecodeSource(w, r, reqID)
	if !ok {
		return
	}
	ctx, cancel := s.core.RequestContextFor(r, reqID)
	defer cancel()
	ans, err := s.backend.Infer(ctx, endpoint, src, body)
	if err != nil {
		s.core.FailBackend(w, err, reqID)
		return
	}
	if ans.Level > 0 {
		em.degraded.Inc()
	}
	h := w.Header()
	h.Set(DegradeHeader, strconv.Itoa(ans.Level))
	h.Set(GenerationHeader, strconv.FormatUint(ans.Generation, 10))
	h.Set("Content-Type", "application/json")
	// A declared length spares the answer chunked framing and lets the
	// router read it into a presized buffer.
	h.Set("Content-Length", strconv.Itoa(len(ans.Body)))
	em.observe(start)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(ans.Body) // a client gone mid-write has nothing left to tell
}

func (s *Server) handleAttribute(w http.ResponseWriter, r *http.Request) {
	s.handleInference(w, r, &s.attribute, "attribute")
}

func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	s.handleInference(w, r, &s.detect, "detect")
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	reqID := s.core.Begin(w, r)
	if r.Method != http.MethodPost {
		s.core.WriteError(w, http.StatusMethodNotAllowed, "POST required", reqID)
		return
	}
	gen, err := s.backend.Reload()
	if err != nil {
		// The previous generation is still serving.
		s.core.WriteError(w, http.StatusInternalServerError, "reload failed: "+err.Error(), reqID)
		return
	}
	s.core.Metrics().Counter("reloads_total").Inc()
	s.core.WriteJSON(w, http.StatusOK, ReloadResponse{ModelGeneration: gen})
}

func (s *Server) handleStage(w http.ResponseWriter, r *http.Request) {
	reqID := s.core.Begin(w, r)
	if r.Method != http.MethodPost {
		s.core.WriteError(w, http.StatusMethodNotAllowed, "POST required", reqID)
		return
	}
	gen, err := s.backend.(Stager).Stage()
	if err != nil {
		s.core.WriteError(w, http.StatusInternalServerError, "stage failed: "+err.Error(), reqID)
		return
	}
	s.core.Metrics().Counter("stages_total").Inc()
	s.core.WriteJSON(w, http.StatusOK, StageResponse{StagedGeneration: gen})
}

func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request) {
	reqID := s.core.Begin(w, r)
	if r.Method != http.MethodPost {
		s.core.WriteError(w, http.StatusMethodNotAllowed, "POST required", reqID)
		return
	}
	gen, err := s.backend.(Stager).Commit()
	if err != nil {
		// 409: nothing staged (or the staged generation was torn away);
		// the serving generation is untouched.
		s.core.WriteError(w, http.StatusConflict, "commit failed: "+err.Error(), reqID)
		return
	}
	s.core.Metrics().Counter("reloads_total").Inc()
	s.core.WriteJSON(w, http.StatusOK, ReloadResponse{ModelGeneration: gen})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.core.WriteJSON(w, http.StatusOK, s.backend.Health())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	met := s.core.Metrics()
	s.backend.Observe(met)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	met.WriteText(w)
}
