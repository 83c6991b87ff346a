package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"gptattr/internal/arena"
)

// The /v1/evade endpoints expose the adversarial arena as a serving
// workload: POST /v1/evade submits one evasion search as a bounded
// asynchronous job (or blocks for the result with "wait": true), and
// GET /v1/evade/status polls it. Searches are orders of magnitude
// heavier than inference, so they run on their own small admission
// budget (arena.Manager) behind the same saturation contract as the
// inference path: exact-N 429 + Retry-After on overflow, 504 when a
// blocking wait outlives the request deadline, 503 while draining.

// EvadeRequest is the body of POST /v1/evade.
type EvadeRequest struct {
	// Source is the C++ source to disguise.
	Source string `json:"source"`
	// TrueAuthor is the label the attack must escape (required).
	TrueAuthor string `json:"true_author"`
	// TargetAuthor, when set, switches to impersonation.
	TargetAuthor string `json:"target_author,omitempty"`
	// Strategy is "mcts" (default) or "beam".
	Strategy string `json:"strategy,omitempty"`
	// Budget caps oracle evaluations (clamped to EvadeOptions.MaxBudget).
	Budget int `json:"budget,omitempty"`
	// MaxDepth caps the transformation-sequence length (clamped to
	// EvadeOptions.MaxDepth).
	MaxDepth int `json:"max_depth,omitempty"`
	// Seed drives the search PRNG; equal seeds give equal searches.
	Seed int64 `json:"seed,omitempty"`
	// VerifyInputs upgrade the candidate gate from static screening to
	// full behaviour verification on these stdin payloads.
	VerifyInputs []string `json:"verify_inputs,omitempty"`
	// Wait blocks the submit until the job finishes (or the request
	// deadline expires with 504). Default is async: 202 + job ID.
	Wait bool `json:"wait,omitempty"`
}

// EvadeResult is the wire form of one finished search.
type EvadeResult struct {
	Success        bool     `json:"success"`
	Source         string   `json:"source,omitempty"`
	Predicted      string   `json:"predicted,omitempty"`
	TrueAuthorProb float64  `json:"true_author_prob"`
	TargetProb     float64  `json:"target_prob,omitempty"`
	Trace          []string `json:"trace,omitempty"`
	Evaluations    int      `json:"evaluations"`
	GateChecks     int      `json:"gate_checks"`
	GateRejects    int      `json:"gate_rejects"`
	Truncated      bool     `json:"truncated,omitempty"`
}

// EvadeJobResponse answers POST /v1/evade and GET /v1/evade/status.
// Through the fleet router the JobID is namespaced "replica/jobID" so
// a later poll routes back to the replica holding the job.
type EvadeJobResponse struct {
	JobID string `json:"job_id"`
	State string `json:"state"`
	// Result is set once State is "done".
	Result *EvadeResult `json:"result,omitempty"`
	// Error is set once State is "failed" or "canceled".
	Error string `json:"error,omitempty"`
}

// evadeTerminal mirrors arena.JobState.Terminal over the wire states,
// so the router can answer 200-vs-202 from a replica's body alone.
func evadeTerminal(state string) bool {
	return arena.JobState(state).Terminal()
}

// EvadeOptions sizes the evasion workload on a replica. Zero values
// select the defaults.
type EvadeOptions struct {
	// MaxRunning is the number of concurrently running searches
	// (default 2).
	MaxRunning int
	// MaxQueued bounds accepted-but-waiting jobs; overflow answers 429
	// (default 8).
	MaxQueued int
	// JobTimeout bounds one search; a job hitting it completes with a
	// truncated best-so-far result (default 60s).
	JobTimeout time.Duration
	// MaxBudget clamps the per-request oracle budget (default 200).
	MaxBudget int
	// MaxDepth clamps the per-request sequence length (default 6).
	MaxDepth int

	// runFn substitutes the search executor in tests (the production
	// path attacks the registry's current oracle).
	runFn arena.RunFunc
}

func (o EvadeOptions) withDefaults() EvadeOptions {
	if o.MaxBudget <= 0 {
		o.MaxBudget = 200
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 6
	}
	return o
}

// Evader is the optional evasion face of a Backend. Server exposes it
// as POST /v1/evade + GET /v1/evade/status when the backend implements
// it and reports it enabled; LocalBackend implements it over an
// arena.Manager, the fleet router by owner-routed forwarding.
type Evader interface {
	// EvadeEnabled reports whether the evade endpoints should be
	// served (LocalBackend: an arena manager is wired; Router: always,
	// the owning replica is the authority).
	EvadeEnabled() bool
	// EvadeSubmit accepts one search job; with req.Wait it blocks for
	// the result under ctx.
	EvadeSubmit(ctx context.Context, req EvadeRequest) (EvadeJobResponse, error)
	// EvadeStatus polls one job; with wait it blocks under ctx.
	EvadeStatus(ctx context.Context, id string, wait bool) (EvadeJobResponse, error)
}

// EnableEvade wires the bounded evasion-job manager into the backend.
// Call before serve.New (or set Config.Evade and let New do it); pair
// with CloseEvade on shutdown.
func (l *LocalBackend) EnableEvade(opts EvadeOptions) {
	opts = opts.withDefaults()
	run := opts.runFn
	if run == nil {
		run = func(ctx context.Context, spec arena.JobSpec) (*arena.Result, error) {
			models := l.reg.Current()
			if models.Oracle == nil {
				return nil, ErrNoOracle
			}
			return arena.Attack(ctx, arena.NewLocalOracle(models.Oracle), spec.Source,
				arena.Goal{TrueAuthor: spec.TrueAuthor, Target: spec.TargetAuthor},
				arena.Config{
					Strategy:     spec.Strategy,
					Budget:       spec.Budget,
					MaxDepth:     spec.MaxDepth,
					Seed:         spec.Seed,
					VerifyInputs: spec.VerifyInputs,
				})
		}
	}
	l.evadeOpts = opts
	l.evade = arena.NewManager(arena.ManagerConfig{
		MaxRunning: opts.MaxRunning,
		MaxQueued:  opts.MaxQueued,
		JobTimeout: opts.JobTimeout,
	}, run)
}

// CloseEvade drains the evasion manager: running searches finish with
// truncated best-so-far results, queued jobs are canceled. No-op when
// evasion was never enabled; idempotent.
func (l *LocalBackend) CloseEvade() {
	if manager := l.evade; manager != nil {
		manager.Close()
	}
}

// EvadeEnabled implements Evader.
func (l *LocalBackend) EvadeEnabled() bool { return l.evade != nil }

// EvadeSubmit implements Evader.
func (l *LocalBackend) EvadeSubmit(ctx context.Context, req EvadeRequest) (EvadeJobResponse, error) {
	spec := arena.JobSpec{
		Source:       req.Source,
		TrueAuthor:   req.TrueAuthor,
		TargetAuthor: req.TargetAuthor,
		Strategy:     arena.Strategy(req.Strategy),
		Budget:       min(req.Budget, l.evadeOpts.MaxBudget),
		MaxDepth:     min(req.MaxDepth, l.evadeOpts.MaxDepth),
		Seed:         req.Seed,
		VerifyInputs: req.VerifyInputs,
	}
	id, err := l.evade.Submit(spec)
	if err != nil {
		return EvadeJobResponse{}, mapEvadeErr(err)
	}
	if req.Wait {
		return l.evadeWait(ctx, id)
	}
	st, err := l.evade.Status(id)
	if err != nil {
		return EvadeJobResponse{}, mapEvadeErr(err)
	}
	return evadeResponse(st), nil
}

// EvadeStatus implements Evader.
func (l *LocalBackend) EvadeStatus(ctx context.Context, id string, wait bool) (EvadeJobResponse, error) {
	if wait {
		return l.evadeWait(ctx, id)
	}
	st, err := l.evade.Status(id)
	if err != nil {
		return EvadeJobResponse{}, mapEvadeErr(err)
	}
	return evadeResponse(st), nil
}

// evadeWait blocks for a terminal state; a ctx expiry passes through
// untouched so FailBackend maps it to 504.
func (l *LocalBackend) evadeWait(ctx context.Context, id string) (EvadeJobResponse, error) {
	st, err := l.evade.Wait(ctx, id)
	if err != nil {
		return EvadeJobResponse{}, mapEvadeErr(err)
	}
	return evadeResponse(st), nil
}

// mapEvadeErr folds the arena's admission sentinels onto the serving
// layer's, so FailBackend applies one saturation contract to both the
// inference queue and the evasion queue.
func mapEvadeErr(err error) error {
	switch {
	case errors.Is(err, arena.ErrSaturated):
		return fmt.Errorf("%w: %v", ErrSaturated, err)
	case errors.Is(err, arena.ErrClosed):
		return fmt.Errorf("%w: %v", ErrClosed, err)
	case errors.Is(err, arena.ErrUnknownJob):
		return &StatusError{Code: http.StatusNotFound, Msg: err.Error()}
	default:
		return err
	}
}

// evadeResponse converts a manager snapshot to the wire form.
func evadeResponse(st arena.JobStatus) EvadeJobResponse {
	out := EvadeJobResponse{JobID: st.ID, State: string(st.State), Error: st.Err}
	if st.Result != nil {
		r := st.Result
		out.Result = &EvadeResult{
			Success:        r.Success,
			Source:         r.Source,
			Predicted:      r.Predicted,
			TrueAuthorProb: r.TrueAuthorProb,
			TargetProb:     r.TargetProb,
			Trace:          r.Trace,
			Evaluations:    r.Evaluations,
			GateChecks:     r.GateChecks,
			GateRejects:    r.GateRejects,
			Truncated:      r.Truncated,
		}
	}
	return out
}

// CloseEvade drains the backend's evasion manager when it owns one
// (the router's jobs live on its replicas, not here). attrserve calls
// it during graceful shutdown, after the listener stops accepting.
func (s *Server) CloseEvade() {
	if lb, ok := s.backend.(*LocalBackend); ok {
		lb.CloseEvade()
	}
}

// decodeEvade parses and validates the submit body, answering the
// error itself (and returning ok=false) when it is unacceptable.
func (s *Server) decodeEvade(w http.ResponseWriter, r *http.Request, reqID string) (EvadeRequest, bool) {
	var req EvadeRequest
	if body, ok := s.readBody(w, r, reqID); !ok || !s.decodeBody(w, body, reqID, &req) {
		return req, false
	}
	if req.Source == "" {
		s.WriteError(w, http.StatusBadRequest, "empty source", reqID)
		return req, false
	}
	if req.TrueAuthor == "" {
		s.WriteError(w, http.StatusBadRequest, "true_author is required", reqID)
		return req, false
	}
	switch arena.Strategy(req.Strategy) {
	case "", arena.StrategyMCTS, arena.StrategyBeam:
	default:
		s.WriteError(w, http.StatusBadRequest, fmt.Sprintf("unknown strategy %q", req.Strategy), reqID)
		return req, false
	}
	return req, true
}

// handleEvade answers POST /v1/evade: 202 + job ID for an accepted
// async search, 200 + result when the response state is terminal
// (wait, or a baseline that already met the goal).
func (s *Server) handleEvade(w http.ResponseWriter, r *http.Request) {
	s.evade.requests.Inc()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	start := time.Now()

	reqID := s.Begin(w, r)
	if !s.admit(w, reqID) {
		return
	}
	defer s.release()
	req, ok := s.decodeEvade(w, r, reqID)
	if !ok {
		return
	}
	ctx, cancel := s.requestContext(r.Context(), reqID)
	defer cancel()
	resp, err := s.evader.EvadeSubmit(ctx, req)
	if err != nil {
		s.failBackend(w, err, reqID)
		return
	}
	s.evade.observe(start)
	status := http.StatusAccepted
	if evadeTerminal(resp.State) {
		status = http.StatusOK
	}
	s.writeJSON(w, status, resp)
}

// handleEvadeStatus answers GET /v1/evade/status?id=...&wait=true.
func (s *Server) handleEvadeStatus(w http.ResponseWriter, r *http.Request) {
	met := s.met
	met.Counter("evade_status_requests_total").Inc()
	reqID := s.Begin(w, r)
	if r.Method != http.MethodGet {
		s.WriteError(w, http.StatusMethodNotAllowed, "GET required", reqID)
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		s.WriteError(w, http.StatusBadRequest, "id is required", reqID)
		return
	}
	wait := r.URL.Query().Get("wait") == "true"
	ctx, cancel := s.requestContext(r.Context(), reqID)
	defer cancel()
	resp, err := s.evader.EvadeStatus(ctx, id, wait)
	if err != nil {
		s.failBackend(w, err, reqID)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}
