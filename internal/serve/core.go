package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"gptattr/internal/serve/metrics"
)

// Core is the transport-agnostic request plumbing shared by every
// HTTP face of the attribution service — the single-process replica
// server and the fleet router (internal/fleet): request-ID minting
// and propagation, per-request deadlines, bounded body decoding,
// metrics, bounded in-flight admission, and the JSON error envelope
// with its status mapping. Because both binaries go through one Core,
// they agree on admission semantics (429 + Retry-After, 504 on
// deadline) and traceability (X-Request-Id) by construction.
type Core struct {
	met          *metrics.Registry
	timeout      time.Duration
	maxBodyBytes int64
	maxInflight  int64 // 0 = unbounded (admission then lives elsewhere, e.g. the batcher queue)
	inflight     atomic.Int64
}

// NewCore builds the shared plumbing. Zero values select defaults:
// a private metrics registry, 10s timeout, 1MiB bodies, unbounded
// in-flight admission.
func NewCore(met *metrics.Registry, timeout time.Duration, maxBodyBytes int64, maxInflight int) *Core {
	if met == nil {
		met = metrics.NewRegistry()
	}
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	if maxBodyBytes <= 0 {
		maxBodyBytes = 1 << 20
	}
	return &Core{met: met, timeout: timeout, maxBodyBytes: maxBodyBytes, maxInflight: int64(maxInflight)}
}

// Metrics returns the registry the core reports into.
func (c *Core) Metrics() *metrics.Registry { return c.met }

// Begin stamps the request ID on the response and returns it. An
// inbound X-Request-Id is propagated unchanged — that is what lets
// one ID trace a request across the router→replica hop — and a
// request arriving without one gets a freshly minted ID.
func (c *Core) Begin(w http.ResponseWriter, r *http.Request) string {
	id := r.Header.Get(RequestIDHeader)
	if id == "" {
		id = newRequestID()
	}
	w.Header().Set(RequestIDHeader, id)
	return id
}

// Admit reserves one in-flight slot when MaxInflight is bounded. On
// overflow it answers 429 itself (counted in rejected_total) and
// returns false; the caller must not Release. A true return must be
// paired with exactly one Release.
func (c *Core) Admit(w http.ResponseWriter, reqID string) bool {
	if c.maxInflight <= 0 {
		return true
	}
	if c.inflight.Add(1) > c.maxInflight {
		c.inflight.Add(-1)
		c.met.Counter("rejected_total").Inc()
		c.WriteError(w, http.StatusTooManyRequests, "server saturated, retry later", reqID)
		return false
	}
	return true
}

// Release returns an Admit slot.
func (c *Core) Release() {
	if c.maxInflight > 0 {
		c.inflight.Add(-1)
	}
}

// RequestContext derives the per-request context: the configured
// deadline plus the request ID for downstream log lines.
func (c *Core) RequestContext(parent context.Context, reqID string) (context.Context, context.CancelFunc) {
	return context.WithTimeout(WithRequestID(parent, reqID), c.timeout)
}

// RequestContextFor is RequestContext honouring an inbound
// X-Request-Budget-Ms header: the deadline is the smaller of the
// configured timeout and the client's remaining budget, so a shrunken
// budget forwarded by the router actually shrinks the replica's
// extraction budget (and with it, what the degrade ladder can afford).
// Malformed or absent budgets fall back to the configured timeout.
func (c *Core) RequestContextFor(r *http.Request, reqID string) (context.Context, context.CancelFunc) {
	timeout := c.timeout
	if ms, err := strconv.Atoi(r.Header.Get(BudgetHeader)); err == nil && ms > 0 {
		if d := time.Duration(ms) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	return context.WithTimeout(WithRequestID(r.Context(), reqID), timeout)
}

// WriteJSON renders one JSON response.
func (c *Core) WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteError answers one failed request. The request ID rides along
// in the body for the statuses a saturated or degraded server emits,
// so incidents stay traceable from client logs alone.
func (c *Core) WriteError(w http.ResponseWriter, status int, msg, reqID string) {
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
	c.WriteJSON(w, status, ErrorResponse{Error: msg, RequestID: reqID})
}

// DecodeSource parses the request body for the inference endpoints,
// answering the error itself (and returning ok=false) when the method,
// encoding, size, or content is unacceptable. It also returns the raw
// body, which a pass-through backend (the fleet router) forwards
// verbatim instead of re-encoding the source.
func (c *Core) DecodeSource(w http.ResponseWriter, r *http.Request, reqID string) (string, []byte, bool) {
	var req AttributeRequest
	body, ok := c.decodeBody(w, r, reqID, &req)
	if !ok {
		return "", nil, false
	}
	if req.Source == "" {
		c.WriteError(w, http.StatusBadRequest, "empty source", reqID)
		return "", nil, false
	}
	return req.Source, body, true
}

// decodeBody reads a POST body of at most MaxBodyBytes and decodes it
// as one JSON value into v, answering the error itself (405, 413, or
// 400; ok=false) when the method, size, or encoding is unacceptable.
// The whole body must be that one value: trailing bytes after it are
// a 400, so a body forwarded verbatim means the same thing to every
// hop that decodes it.
func (c *Core) decodeBody(w http.ResponseWriter, r *http.Request, reqID string, v any) ([]byte, bool) {
	if r.Method != http.MethodPost {
		c.WriteError(w, http.StatusMethodNotAllowed, "POST required", reqID)
		return nil, false
	}
	body, err := ReadBody(http.MaxBytesReader(w, r.Body, c.maxBodyBytes), r.ContentLength, c.maxBodyBytes)
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		c.WriteError(w, status, "bad request body: "+err.Error(), reqID)
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

// FailBackend translates a Backend error into the HTTP answer,
// bumping the same degradation counters for every transport:
// rejected_total on 429, deadline_exceeded_total on 504,
// batch_failures_total on internal extraction failures.
func (c *Core) FailBackend(w http.ResponseWriter, err error, reqID string) {
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
		c.met.Counter("rejected_total").Inc()
	case http.StatusGatewayTimeout:
		c.met.Counter("deadline_exceeded_total").Inc()
	}
	if errors.Is(err, ErrInternal) {
		c.met.Counter("batch_failures_total").Inc()
	}
	c.WriteError(w, status, msg, reqID)
}
