package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
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

// Server is the HTTP attribution service over a pluggable Backend. It
// owns the request plumbing every HTTP face shares — the replica
// (LocalBackend) and the fleet router (internal/fleet) alike: request-ID
// minting and propagation, per-request deadlines, bounded body
// decoding, metrics, bounded in-flight admission, and the JSON error
// envelope with its status mapping. Because both binaries run this one
// Server, they agree on admission semantics (429 + Retry-After, 504 on
// deadline) and traceability (X-Request-Id) by construction.
type Server struct {
	backend Backend
	evader  Evader // nil unless the backend serves /v1/evade
	mux     *http.ServeMux

	met          *metrics.Registry
	timeout      time.Duration
	maxBodyBytes int64
	maxInflight  int64        // 0 = unbounded (admission then lives in the backend's queue)
	admitted     atomic.Int64 // requests holding an admit slot

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
	met := cfg.Metrics
	if met == nil {
		met = metrics.NewRegistry()
	}
	s := &Server{
		backend: backend, mux: http.NewServeMux(),
		met: met, timeout: cfg.Timeout, maxBodyBytes: cfg.MaxBodyBytes, maxInflight: int64(cfg.MaxInflight),
		inflight:  met.Gauge("inflight"),
		attribute: newEndpointMetrics(met, "attribute", true),
		detect:    newEndpointMetrics(met, "detect", true),
	}
	if s.timeout <= 0 {
		s.timeout = 10 * time.Second
	}
	if s.maxBodyBytes <= 0 {
		s.maxBodyBytes = 1 << 20
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

// handleInference is the shared endpoint body: count, admit, decode,
// get the encoded answer from the backend, write it unchanged.
func (s *Server) handleInference(w http.ResponseWriter, r *http.Request, em *endpointMetrics, endpoint string) {
	em.requests.Inc()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	start := time.Now()

	reqID := s.Begin(w, r)
	if !s.admit(w, reqID) {
		return
	}
	defer s.release()
	src, body, ok := s.decodeSource(w, r, reqID)
	if !ok {
		return
	}
	ctx, cancel := s.requestContextFor(r, reqID)
	defer cancel()
	ans, err := s.backend.Infer(ctx, endpoint, src, body)
	if err != nil {
		s.failBackend(w, err, reqID)
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
	reqID := s.Begin(w, r)
	if r.Method != http.MethodPost {
		s.WriteError(w, http.StatusMethodNotAllowed, "POST required", reqID)
		return
	}
	gen, err := s.backend.Reload()
	if err != nil {
		// The previous generation is still serving.
		s.WriteError(w, http.StatusInternalServerError, "reload failed: "+err.Error(), reqID)
		return
	}
	s.met.Counter("reloads_total").Inc()
	s.writeJSON(w, http.StatusOK, ReloadResponse{ModelGeneration: gen})
}

func (s *Server) handleStage(w http.ResponseWriter, r *http.Request) {
	reqID := s.Begin(w, r)
	if r.Method != http.MethodPost {
		s.WriteError(w, http.StatusMethodNotAllowed, "POST required", reqID)
		return
	}
	gen, err := s.backend.(Stager).Stage()
	if err != nil {
		s.WriteError(w, http.StatusInternalServerError, "stage failed: "+err.Error(), reqID)
		return
	}
	s.met.Counter("stages_total").Inc()
	s.writeJSON(w, http.StatusOK, StageResponse{StagedGeneration: gen})
}

func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request) {
	reqID := s.Begin(w, r)
	if r.Method != http.MethodPost {
		s.WriteError(w, http.StatusMethodNotAllowed, "POST required", reqID)
		return
	}
	gen, err := s.backend.(Stager).Commit()
	if err != nil {
		// 409: nothing staged (or the staged generation was torn away);
		// the serving generation is untouched.
		s.WriteError(w, http.StatusConflict, "commit failed: "+err.Error(), reqID)
		return
	}
	s.met.Counter("reloads_total").Inc()
	s.writeJSON(w, http.StatusOK, ReloadResponse{ModelGeneration: gen})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.backend.Health())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	met := s.met
	s.backend.Observe(met)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	met.WriteText(w)
}

// Begin stamps the request ID on the response and returns it. An
// inbound X-Request-Id is propagated unchanged — that is what lets
// one ID trace a request across the router→replica hop — and a
// request arriving without one gets a freshly minted ID.
func (s *Server) Begin(w http.ResponseWriter, r *http.Request) string {
	id := r.Header.Get(RequestIDHeader)
	if id == "" {
		id = newRequestID()
	}
	w.Header().Set(RequestIDHeader, id)
	return id
}

// admit reserves one in-flight slot when MaxInflight is bounded. On
// overflow it answers 429 itself (counted in rejected_total) and
// returns false; the caller must not release. A true return must be
// paired with exactly one release.
func (s *Server) admit(w http.ResponseWriter, reqID string) bool {
	if s.maxInflight <= 0 {
		return true
	}
	if s.admitted.Add(1) > s.maxInflight {
		s.admitted.Add(-1)
		s.met.Counter("rejected_total").Inc()
		s.WriteError(w, http.StatusTooManyRequests, "server saturated, retry later", reqID)
		return false
	}
	return true
}

// release returns an admit slot.
func (s *Server) release() {
	if s.maxInflight > 0 {
		s.admitted.Add(-1)
	}
}

// requestContext derives the per-request context: the configured
// deadline plus the request ID for downstream log lines.
func (s *Server) requestContext(parent context.Context, reqID string) (context.Context, context.CancelFunc) {
	return context.WithTimeout(WithRequestID(parent, reqID), s.timeout)
}

// requestContextFor is requestContext honouring an inbound
// X-Request-Budget-Ms header: the deadline is the smaller of the
// configured timeout and the client's remaining budget, so a shrunken
// budget forwarded by the router actually shrinks the replica's
// extraction budget (and with it, what the degrade ladder can afford).
// Malformed or absent budgets fall back to the configured timeout.
// The budget is compared in milliseconds before it becomes a Duration:
// multiplying a huge one first would wrap negative and expire at once.
// An absent header is not parsed: the error ParseInt builds for it
// would be an allocation on every budget-less request.
func (s *Server) requestContextFor(r *http.Request, reqID string) (context.Context, context.CancelFunc) {
	timeout := s.timeout
	if b := r.Header.Get(BudgetHeader); b != "" {
		if ms, err := strconv.ParseInt(b, 10, 64); err == nil && ms > 0 && ms <= timeout.Milliseconds() {
			timeout = min(timeout, time.Duration(ms)*time.Millisecond)
		}
	}
	return context.WithTimeout(WithRequestID(r.Context(), reqID), timeout)
}

// writeJSON renders one JSON response.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteError answers one failed request. The request ID rides along
// in the body for the statuses a saturated or degraded server emits,
// so incidents stay traceable from client logs alone.
func (s *Server) WriteError(w http.ResponseWriter, status int, msg, reqID string) {
	switch status {
	case http.StatusTooManyRequests:
		// Closed-loop clients should back off; a queued extraction
		// turns around in milliseconds, so one second is conservative.
		w.Header().Set("Retry-After", "1")
	case http.StatusServiceUnavailable:
		// 503s are transient by contract here — a draining replica, a
		// lost forwarded job, a contained extraction failure — so tell
		// clients when to come back instead of letting them hammer.
		w.Header().Set("Retry-After", "1")
	}
	s.writeJSON(w, status, ErrorResponse{Error: msg, RequestID: reqID})
}

// decodeSource parses the request body for the inference endpoints,
// answering the error itself (and returning ok=false) when the method,
// encoding, size, or content is unacceptable. It also returns the raw
// body, which a pass-through backend (the fleet router) forwards
// verbatim instead of re-encoding the source. A canonical body takes
// parseSource's fast path; any other is decoded by json.Unmarshal, so
// every error, status and message is encoding/json's.
func (s *Server) decodeSource(w http.ResponseWriter, r *http.Request, reqID string) (string, []byte, bool) {
	body, ok := s.readBody(w, r, reqID)
	if !ok {
		return "", nil, false
	}
	src, fast := parseSource(body)
	if !fast {
		var req AttributeRequest
		if !s.decodeBody(w, body, reqID, &req) {
			return "", nil, false
		}
		src = req.Source
	}
	if src == "" {
		s.WriteError(w, http.StatusBadRequest, "empty source", reqID)
		return "", nil, false
	}
	return src, body, true
}

// decodeBody decodes a body from readBody as one JSON value into v,
// answering a decode error itself (400; ok=false). The whole body must
// be that one value: trailing bytes after it are a 400, so a body
// forwarded verbatim means the same thing to every hop that decodes it.
func (s *Server) decodeBody(w http.ResponseWriter, body []byte, reqID string, v any) bool {
	if err := json.Unmarshal(body, v); err != nil {
		s.WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error(), reqID)
		return false
	}
	return true
}

// readBody reads a POST body of at most MaxBodyBytes, answering the
// error itself (405, 413, or 400; ok=false) when the method or size is
// unacceptable or the read fails.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, reqID string) ([]byte, bool) {
	if r.Method != http.MethodPost {
		s.WriteError(w, http.StatusMethodNotAllowed, "POST required", reqID)
		return nil, false
	}
	body, err := ReadBody(http.MaxBytesReader(w, r.Body, s.maxBodyBytes), r.ContentLength, s.maxBodyBytes)
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		s.WriteError(w, status, "bad request body: "+err.Error(), reqID)
		return nil, false
	}
	return body, true
}

// ReadBody reads r to EOF. declared is the body's announced length
// (an HTTP Content-Length, -1 when unknown); clamped to [0, limit], it
// presizes the buffer, so a body of announced size is read without
// regrowing and copying. r must enforce limit itself.
func ReadBody(r io.Reader, declared, limit int64) ([]byte, error) {
	// io.ReadAll's loop, from a presized buffer; the spare 512 bytes
	// let the read that reports EOF land without growing it.
	b := make([]byte, 0, max(0, min(declared, limit))+512)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// StatusError carries an explicit HTTP status through a Backend. The
// fleet router uses it to pass a replica's verdict (its 422, 429, …)
// through to the client unchanged instead of re-deriving a status.
type StatusError struct {
	Code int
	Msg  string
}

// Error renders the carried message.
func (e *StatusError) Error() string { return e.Msg }

// failBackend translates a Backend error into the HTTP answer,
// bumping the same degradation counters for every transport:
// rejected_total on 429, deadline_exceeded_total on 504,
// batch_failures_total on internal extraction failures.
func (s *Server) failBackend(w http.ResponseWriter, err error, reqID string) {
	var status int
	var msg string
	var se *StatusError
	switch {
	case errors.As(err, &se):
		status, msg = se.Code, se.Msg
	case errors.Is(err, ErrNoOracle), errors.Is(err, ErrNoDetector):
		status, msg = http.StatusServiceUnavailable, err.Error()
	case errors.Is(err, ErrSaturated):
		status, msg = http.StatusTooManyRequests, "server saturated, retry later"
	case errors.Is(err, ErrClosed):
		status, msg = http.StatusServiceUnavailable, "server shutting down"
	case errors.Is(err, ErrInternal):
		status, msg = http.StatusServiceUnavailable, "extraction failed, retry later: "+err.Error()
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		status, msg = http.StatusGatewayTimeout, "request deadline exceeded"
	default:
		// The source itself did not extract (e.g. not lexable C++).
		status, msg = http.StatusUnprocessableEntity, "source rejected: "+err.Error()
	}
	switch status {
	case http.StatusTooManyRequests:
		s.met.Counter("rejected_total").Inc()
	case http.StatusGatewayTimeout:
		s.met.Counter("deadline_exceeded_total").Inc()
	}
	if errors.Is(err, ErrInternal) {
		s.met.Counter("batch_failures_total").Inc()
	}
	s.WriteError(w, status, msg, reqID)
}
