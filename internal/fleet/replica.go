package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"gptattr/internal/serve"
)

// maxReplicaBody bounds how much of a replica response the router
// will buffer; inference responses are a few KB of JSON.
const maxReplicaBody = 1 << 20

// Replica is the router's client for one shared-nothing attrserve
// process. All calls propagate the request ID and are bounded by the
// caller's context; a transport-level failure (connection refused,
// reset mid-body) is returned as an error so the router can fail the
// replica over, while an HTTP-answered request — any status — is a
// verdict to pass through.
type Replica struct {
	// Name identifies the replica on the ring and in logs/metrics.
	Name string
	// BaseURL is the replica's serving address (no trailing slash).
	BaseURL string
	// Client issues the HTTP calls (shared across replicas).
	Client *http.Client
}

// defaultIdlePerReplica is how many idle connections per replica the
// client NewReplica builds by default keeps: attrrouter's default
// -max-inflight, so every forward the router admits can reuse a
// kept-alive connection.
const defaultIdlePerReplica = 1024

// defaultClient is shared by every replica built without a client,
// so they share one connection pool, as zero-value clients would.
var defaultClient = sync.OnceValue(func() *http.Client { return NewClient(defaultIdlePerReplica) })

// NewClient builds the HTTP client for replica calls, keeping up to
// idlePerReplica idle connections to each replica (<= 0 selects the
// default). net/http's default keeps 2, so every forward beyond two
// concurrent ones per replica would dial a fresh TCP connection and
// leave a socket in TIME_WAIT when it was done; size it to the
// router's in-flight bound instead.
func NewClient(idlePerReplica int) *http.Client {
	if idlePerReplica <= 0 {
		idlePerReplica = defaultIdlePerReplica
	}
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 0 // no fleet-wide cap; the per-replica one bounds it
	t.MaxIdleConnsPerHost = idlePerReplica
	return &http.Client{Transport: t}
}

// NewReplica builds a replica handle. A nil client selects a shared
// default sized by NewClient; per-call deadlines come from contexts.
func NewReplica(name, baseURL string, client *http.Client) *Replica {
	if client == nil {
		client = defaultClient()
	}
	return &Replica{Name: name, BaseURL: strings.TrimRight(baseURL, "/"), Client: client}
}

// Forward posts one inference request body to /v1/<endpoint>. The
// returned status and body are the replica's verdict verbatim; err is
// non-nil only for transport failures, which make the request safe
// and necessary to retry elsewhere.
func (r *Replica) Forward(ctx context.Context, endpoint, reqID string, body []byte) (int, []byte, error) {
	status, _, b, err := r.post(ctx, endpoint, reqID, body)
	return status, b, err
}

// post is Forward that also returns the response headers, where a
// replica's 200 carries its degrade level and model generation.
func (r *Replica) post(ctx context.Context, endpoint, reqID string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.BaseURL+"/v1/"+endpoint, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set(serve.RequestIDHeader, reqID)
	}
	if dl, ok := ctx.Deadline(); ok {
		// Forward the remaining budget, not the original one: the time
		// already burned at this hop (queueing, a lost first attempt)
		// must shrink what the replica may spend.
		if ms := int64(time.Until(dl) / time.Millisecond); ms > 0 {
			req.Header.Set(serve.BudgetHeader, strconv.FormatInt(ms, 10))
		}
	}
	resp, err := r.Client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer func() { _ = resp.Body.Close() }() // body read to the limit below either way
	b, err := serve.ReadBody(io.LimitReader(resp.Body, maxReplicaBody), resp.ContentLength, maxReplicaBody)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, b, nil
}

// EvadeStatus polls one evasion job on this replica (the unprefixed
// job ID). Like Forward, the returned status and body are the
// replica's verdict verbatim; err is transport-only — but an evade
// poll is never retried elsewhere, because no other replica holds the
// job.
func (r *Replica) EvadeStatus(ctx context.Context, jobID string, wait bool, reqID string) (int, []byte, error) {
	u := r.BaseURL + "/v1/evade/status?id=" + url.QueryEscape(jobID)
	if wait {
		u += "&wait=true"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, nil, err
	}
	if reqID != "" {
		req.Header.Set(serve.RequestIDHeader, reqID)
	}
	resp, err := r.Client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer func() { _ = resp.Body.Close() }() // body read to the limit below either way
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxReplicaBody))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

// Healthz fetches the replica's health report.
func (r *Replica) Healthz(ctx context.Context) (serve.HealthResponse, error) {
	var h serve.HealthResponse
	err := r.call(ctx, http.MethodGet, "/healthz", &h)
	return h, err
}

// Stage asks the replica to load the next model generation without
// serving it (phase one of a coordinated reload).
func (r *Replica) Stage(ctx context.Context) (uint64, error) {
	var sr serve.StageResponse
	if err := r.call(ctx, http.MethodPost, "/v1/reload/stage", &sr); err != nil {
		return 0, err
	}
	return sr.StagedGeneration, nil
}

// Commit asks the replica to atomically publish its staged generation
// (phase two of a coordinated reload).
func (r *Replica) Commit(ctx context.Context) (uint64, error) {
	var rr serve.ReloadResponse
	if err := r.call(ctx, http.MethodPost, "/v1/reload/commit", &rr); err != nil {
		return 0, err
	}
	return rr.ModelGeneration, nil
}

// call issues one control request and decodes a 200's JSON body into
// out; a non-200 answer becomes an error quoting the replica's
// error body.
func (r *Replica) call(ctx context.Context, method, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, r.BaseURL+path, nil)
	if err != nil {
		return err
	}
	resp, err := r.Client.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }() // body read to the limit below either way
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxReplicaBody))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: %s: %s answered %d: %s", r.Name, path, resp.StatusCode, errorBody(b))
	}
	return json.Unmarshal(b, out)
}

// errorBody extracts the error field from a replica's JSON error
// envelope, falling back to the raw (truncated) body.
func errorBody(b []byte) string {
	var er serve.ErrorResponse
	if err := json.Unmarshal(b, &er); err == nil && er.Error != "" {
		return er.Error
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}
