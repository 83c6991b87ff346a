// Package fleet is the horizontal serving tier: a consistent-hashing
// router over N shared-nothing attrserve replicas, with per-replica
// health tracking, request hedging against slow replicas, passive
// failover on dead connections, and coordinated two-phase model
// reloads that never expose a mixed-generation window.
//
// The router plugs into internal/serve as a Backend: the HTTP layer,
// admission, metrics, and request-ID plumbing are the same serve.Server
// the replicas run, so a request is traceable by one X-Request-Id from
// the client through the router to the replica that served it.
//
// The router keeps one record per replica (its handle, in-flight
// count, circuit breaker, consecutive-failure count and last probe
// report); whether a replica is in rotation lives only in the Ring.
//
// Consistency across reloads is a drain-and-flip: phase one stages
// the next model generation on every replica while the old generation
// keeps serving; phase two takes the flip gate (a write lock every
// forward holds for reading), which drains in-flight forwards, then
// commits every replica and updates the fleet generation before any
// new forward dispatches. Replicas that miss the flip (crashed,
// restarted, torn commit) are healed — driven through stage+commit
// cycles until they reach the fleet generation — before they rejoin
// the ring, so clients never observe a response from a stale
// generation once the fleet has moved.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gptattr/internal/fault"
	"gptattr/internal/serve"
	"gptattr/internal/serve/metrics"
)

// Fault-injection points on the routing path (see internal/fault).
const (
	// PointForward fires before dispatching any forward; an error
	// degrades the router itself (503) without touching replicas.
	PointForward = "fleet.forward"
	// PointReloadStage fires at the head of a coordinated reload's
	// stage phase; an error aborts the reload before any replica is
	// touched.
	PointReloadStage = "fleet.reload.stage"
	// PointReloadCommit fires between the stage and commit phases —
	// the torn-reload window: every replica holds a staged generation
	// but none has flipped.
	PointReloadCommit = "fleet.reload.commit"
)

// PointForwardReplica names the per-replica forward point; arming it
// with latency makes that one replica slow (hedging territory) and
// with errors makes it flaky (failover territory), deterministically
// under the fault seed.
func PointForwardReplica(name string) string { return "fleet.forward." + name }

// healMaxCycles bounds how many stage+commit rounds a heal will drive
// a lagging replica through before giving up on it.
const healMaxCycles = 64

// p2cSlack is the power-of-two-choices threshold: when the primary's
// router-side in-flight count exceeds the runner-up's by more than
// this, the hot key is served by the runner-up.
const p2cSlack = 4

// reloadTimeout budgets one coordinated reload, or one of its phases,
// driven through the Backend methods.
const reloadTimeout = 30 * time.Second

// Config wires a Router together.
type Config struct {
	// Replicas is the fixed fleet membership (required, names unique).
	Replicas []*Replica
	// Vnodes is the ring points per replica (default DefaultVnodes).
	Vnodes int
	// HedgeDelay is how long the primary may stay silent before the
	// same request is hedged to the next replica on the ring
	// (default 25ms). NoHedge disables hedging entirely.
	HedgeDelay time.Duration
	NoHedge    bool
	// DeadAfter is the consecutive probe failures before a replica
	// leaves the rotation (default 2); forward-path connection
	// failures take it out immediately.
	DeadAfter int
	// ProbeInterval is the health-poll period; 0 disables the
	// background poller (tests drive ProbeAll directly).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (default 2s).
	ProbeTimeout time.Duration
	// Breaker tunes the per-replica circuit breakers (zero values
	// select the BreakerConfig defaults). Breakers shed load from
	// replicas that answer badly — slow or erroring — before failure
	// detection would take them out of the ring entirely.
	Breaker BreakerConfig
	// Metrics receives router counters and gauges; nil creates a
	// private registry. Pass the same registry to serve.Config so
	// /metrics renders both views.
	Metrics *metrics.Registry
	// Logf, when non-nil, receives operational log lines (replicas
	// leaving/rejoining rotation, reload phases).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Vnodes <= 0 {
		c.Vnodes = DefaultVnodes
	}
	if c.HedgeDelay <= 0 {
		c.HedgeDelay = 25 * time.Millisecond
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 2
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	return c
}

// FleetStatus answers GET /fleet/status on the router.
type FleetStatus struct {
	Generation    uint64          `json:"generation"`
	AliveReplicas int             `json:"alive_replicas"`
	Replicas      []ReplicaStatus `json:"replicas"`
	Forwards      uint64          `json:"forwards"`
	Failovers     uint64          `json:"failovers"`
	Hedges        uint64          `json:"hedges"`
	HedgeWins     uint64          `json:"hedge_wins"`
	GenMismatches uint64          `json:"gen_mismatches"`
	Restores      uint64          `json:"restores"`
	// BreakerOpens counts closed→open transitions across the fleet;
	// BreakerRejects counts dispatches shed by an open breaker.
	BreakerOpens   uint64 `json:"breaker_opens"`
	BreakerRejects uint64 `json:"breaker_rejects"`
}

// ReplicaStatus is one replica's row in the fleet status report.
type ReplicaStatus struct {
	Name string `json:"name"`
	URL  string `json:"url"`
	// Alive is the routing view: dead replicas keep their ring points
	// but receive no traffic.
	Alive bool `json:"alive"`
	// Generation/StagedGeneration are from the last successful probe.
	Generation       uint64 `json:"generation"`
	StagedGeneration uint64 `json:"staged_generation,omitempty"`
	Oracle           bool   `json:"oracle"`
	Detector         bool   `json:"detector"`
	// ConsecutiveFailures counts failed probes since the last success;
	// a forward-path death counts as one.
	ConsecutiveFailures int `json:"consecutive_failures,omitempty"`
	// Inflight is the router's outstanding request count against this
	// replica (the power-of-two-choices load signal).
	Inflight int64 `json:"inflight"`
	// Breaker is the circuit-breaker position ("closed", "open",
	// "half-open"); BreakerFailureRate its windowed failure fraction.
	Breaker            string  `json:"breaker,omitempty"`
	BreakerFailureRate float64 `json:"breaker_failure_rate,omitempty"`
}

// member is the router's record of one replica. Aliveness is not here:
// the Ring holds it, and Ring.SetAlive decides each transition.
type member struct {
	rep      *Replica
	inflight atomic.Int64 // outstanding forwards: the P2C load signal
	breaker  *Breaker

	mu    sync.Mutex
	fails int // consecutive failed probes; a forward-path death counts as one
	// The last successful probe's report.
	gen, staged      uint64
	oracle, detector bool
}

// probed records a successful probe: failures reset, report kept.
func (m *member) probed(h serve.HealthResponse) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fails = 0
	m.gen, m.staged = h.ModelGeneration, h.StagedGeneration
	m.oracle, m.detector = h.Oracle, h.Detector
}

// probeFailed counts one failed probe and returns the new count.
func (m *member) probeFailed() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fails++
	return m.fails
}

// died records a transport-level death, which counts as one failure
// unless probes have already counted some.
func (m *member) died() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fails == 0 {
		m.fails = 1
	}
}

// restored resets the failure count as the replica rejoins the ring.
func (m *member) restored() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fails = 0
}

// status renders the member's status row.
func (m *member) status(alive bool) ReplicaStatus {
	m.mu.Lock()
	rs := ReplicaStatus{
		Name: m.rep.Name, URL: m.rep.BaseURL, Alive: alive,
		Generation: m.gen, StagedGeneration: m.staged,
		Oracle: m.oracle, Detector: m.detector,
		ConsecutiveFailures: m.fails,
	}
	m.mu.Unlock()
	rs.Inflight = m.inflight.Load()
	rs.Breaker = m.breaker.State().String()
	rs.BreakerFailureRate = m.breaker.FailureRate()
	return rs
}

// Router implements serve.Backend over the replica fleet.
type Router struct {
	cfg     Config
	ring    *Ring
	members map[string]*member
	names   []string // sorted, for deterministic iteration
	met     *metrics.Registry
	ctr     counters

	// fleetGen is the generation every in-rotation replica serves;
	// forwards read it at dispatch, the flip writes it.
	fleetGen atomic.Uint64

	// flip is the mixed-version guard: every forward holds it for
	// reading across dispatch; a coordinated reload's commit phase
	// takes it for writing, which drains in-flight forwards, flips
	// every replica, and releases — so no forward ever spans the flip.
	flip sync.RWMutex

	// reloadMu serializes fleet mutations (coordinated reloads and
	// dead-replica restores). Lock order: reloadMu before flip.
	reloadMu sync.Mutex

	stop     chan struct{}
	pollDone chan struct{}
}

// counters holds the router's event counters, resolved once in New so
// no event looks a metric up by name. Resolving them up front also
// lists every one in /metrics at 0 before its first event.
type counters struct {
	forwards, evadeForwards                          *metrics.Counter
	failovers, hedges, hedgeWins                     *metrics.Counter
	genMismatches, restores, p2cDemotions            *metrics.Counter
	breakerOpens, breakerHalfOpens, breakerCloses    *metrics.Counter
	breakerRejects, breakerBypasses, stages, reloads *metrics.Counter
}

func newCounters(met *metrics.Registry) counters {
	return counters{
		forwards:         met.Counter("fleet_forwards_total"),
		evadeForwards:    met.Counter("fleet_evade_forwards_total"),
		failovers:        met.Counter("fleet_failovers_total"),
		hedges:           met.Counter("fleet_hedges_total"),
		hedgeWins:        met.Counter("fleet_hedge_wins_total"),
		genMismatches:    met.Counter("fleet_gen_mismatch_total"),
		restores:         met.Counter("fleet_restores_total"),
		p2cDemotions:     met.Counter("fleet_p2c_demotions_total"),
		breakerOpens:     met.Counter("fleet_breaker_opens_total"),
		breakerHalfOpens: met.Counter("fleet_breaker_halfopens_total"),
		breakerCloses:    met.Counter("fleet_breaker_closes_total"),
		breakerRejects:   met.Counter("fleet_breaker_rejects_total"),
		breakerBypasses:  met.Counter("fleet_breaker_bypasses_total"),
		stages:           met.Counter("fleet_stages_total"),
		reloads:          met.Counter("fleet_reloads_total"),
	}
}

// New builds the router. Membership is fixed at construction; call
// Sync to take the initial health census, then Start for background
// polling.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("fleet: at least one replica is required")
	}
	rt := &Router{
		cfg:      cfg,
		ring:     NewRing(cfg.Vnodes),
		members:  make(map[string]*member, len(cfg.Replicas)),
		met:      cfg.Metrics,
		ctr:      newCounters(cfg.Metrics),
		stop:     make(chan struct{}),
		pollDone: make(chan struct{}),
	}
	for _, rep := range cfg.Replicas {
		if !ValidName(rep.Name) {
			return nil, fmt.Errorf("fleet: invalid replica name %q", rep.Name)
		}
		if _, dup := rt.members[rep.Name]; dup {
			return nil, fmt.Errorf("fleet: duplicate replica name %q", rep.Name)
		}
		rt.members[rep.Name] = &member{rep: rep, breaker: rt.newBreaker(rep.Name)}
		rt.ring.Add(rep.Name)
		rt.names = append(rt.names, rep.Name)
	}
	sort.Strings(rt.names)
	return rt, nil
}

// newBreaker builds one replica's breaker, wiring transitions into the
// log and the metrics registry.
func (rt *Router) newBreaker(name string) *Breaker {
	cfg := rt.cfg.Breaker
	cfg.OnChange = func(from, to BreakerState) {
		switch to {
		case BreakerOpen:
			rt.ctr.breakerOpens.Inc()
		case BreakerHalfOpen:
			rt.ctr.breakerHalfOpens.Inc()
		case BreakerClosed:
			rt.ctr.breakerCloses.Inc()
		}
		rt.logf("fleet: breaker %s: %s -> %s", name, from, to)
	}
	return NewBreaker(cfg)
}

func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.Logf != nil {
		rt.cfg.Logf(format, args...)
	}
}

// Sync takes the initial census: probes every replica, drops the
// unreachable from rotation, adopts the highest serving generation as
// the fleet generation, and heals stragglers up to it. At least one
// replica must be reachable.
func (rt *Router) Sync(ctx context.Context) error {
	rt.reloadMu.Lock()
	defer rt.reloadMu.Unlock()
	var maxGen uint64
	gens := make(map[string]uint64)
	for _, name := range rt.names {
		h, err := rt.probe(ctx, name)
		if err != nil {
			rt.takeDown(name)
			rt.logf("fleet: replica %s unreachable at startup: %v", name, err)
			continue
		}
		gens[name] = h.ModelGeneration
		if h.ModelGeneration > maxGen {
			maxGen = h.ModelGeneration
		}
	}
	if len(gens) == 0 {
		return fmt.Errorf("fleet: no replica reachable")
	}
	for _, name := range rt.names {
		gen, ok := gens[name]
		if !ok || gen == maxGen {
			continue
		}
		if err := rt.heal(ctx, name, maxGen); err != nil {
			rt.takeDown(name)
			rt.logf("fleet: replica %s stuck at generation %d, out of rotation: %v", name, gen, err)
		}
	}
	rt.fleetGen.Store(maxGen)
	rt.logf("fleet: synced %d/%d replicas at generation %d", len(rt.ring.Alive()), len(rt.names), maxGen)
	return nil
}

// Start launches the background health poller (no-op when
// ProbeInterval is 0). Close stops it.
func (rt *Router) Start() {
	if rt.cfg.ProbeInterval <= 0 {
		close(rt.pollDone)
		return
	}
	go func() {
		defer close(rt.pollDone)
		ticker := time.NewTicker(rt.cfg.ProbeInterval)
		defer ticker.Stop()
		for {
			select {
			case <-rt.stop:
				return
			case <-ticker.C:
				rt.ProbeAll(context.Background())
			}
		}
	}()
}

// Close stops the poller.
func (rt *Router) Close() {
	select {
	case <-rt.stop:
	default:
		close(rt.stop)
	}
	<-rt.pollDone
}

// probe fetches one replica's health under the probe timeout.
func (rt *Router) probe(ctx context.Context, name string) (serve.HealthResponse, error) {
	pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	defer cancel()
	m := rt.members[name]
	h, err := m.rep.Healthz(pctx)
	if err != nil {
		return h, err
	}
	m.probed(h)
	return h, nil
}

// ProbeAll health-checks every replica once: alive replicas failing
// DeadAfter consecutive probes leave the rotation; dead replicas that
// answer are healed to the fleet generation and restored.
func (rt *Router) ProbeAll(ctx context.Context) {
	for _, name := range rt.names {
		_, err := rt.probe(ctx, name)
		if err != nil {
			// SetAlive reports the alive→dead flip itself, so a replica
			// already out of rotation is not logged again.
			if rt.members[name].probeFailed() >= rt.cfg.DeadAfter && rt.ring.SetAlive(name, false) {
				rt.logf("fleet: replica %s out of rotation after failed probes: %v", name, err)
			}
			continue
		}
		if !rt.ring.IsAlive(name) {
			rt.tryRestore(ctx, name)
		}
	}
}

// tryRestore returns an answering-but-dead replica to the ring, first
// healing it to the fleet generation so it cannot serve stale models.
// Serialized with coordinated reloads so a heal never races a flip.
func (rt *Router) tryRestore(ctx context.Context, name string) {
	rt.reloadMu.Lock()
	defer rt.reloadMu.Unlock()
	target := rt.fleetGen.Load()
	if target > 0 {
		if err := rt.heal(ctx, name, target); err != nil {
			rt.logf("fleet: replica %s answers but cannot reach generation %d: %v", name, target, err)
			return
		}
	}
	rt.members[name].restored()
	rt.ring.SetAlive(name, true)
	rt.ctr.restores.Inc()
	rt.logf("fleet: replica %s restored at generation %d", name, target)
}

// heal drives one replica through stage+commit cycles until its
// serving generation reaches target. Callers hold reloadMu.
func (rt *Router) heal(ctx context.Context, name string, target uint64) error {
	m := rt.members[name]
	for i := 0; i < healMaxCycles; i++ {
		h, err := m.rep.Healthz(ctx)
		if err != nil {
			return err
		}
		switch {
		case h.ModelGeneration == target:
			m.probed(h)
			return nil
		case h.ModelGeneration > target:
			return fmt.Errorf("fleet: %s at generation %d, ahead of fleet generation %d (out-of-band reload?)",
				name, h.ModelGeneration, target)
		}
		if _, err := m.rep.Stage(ctx); err != nil {
			return err
		}
		if _, err := m.rep.Commit(ctx); err != nil {
			return err
		}
	}
	return fmt.Errorf("fleet: %s did not reach generation %d within %d reload cycles", name, target, healMaxCycles)
}

// takeDown takes a replica out of rotation at once after a
// transport-level failure, reporting whether it was in rotation.
func (rt *Router) takeDown(name string) bool {
	rt.members[name].died()
	return rt.ring.SetAlive(name, false)
}

// replicaDown takes a replica out of rotation after a forward-path
// transport failure; the probe loop restores it when it answers again.
func (rt *Router) replicaDown(name string, err error) {
	if rt.takeDown(name) {
		rt.logf("fleet: replica %s out of rotation (forward failed: %v)", name, err)
	}
}

// pickOrder is the dispatch order for a key: ring owner first, then
// the failover successors, with the power-of-two-choices demotion
// when the owner is drowning in a hot key.
func (rt *Router) pickOrder(key string) []string {
	order := rt.ring.Owners([]byte(key), len(rt.names))
	if len(order) >= 2 {
		if rt.members[order[0]].inflight.Load()-rt.members[order[1]].inflight.Load() > p2cSlack {
			order[0], order[1] = order[1], order[0]
			rt.ctr.p2cDemotions.Inc()
		}
	}
	return order
}

// errBreakerOpen marks a dispatch the router rejected locally because
// the replica's breaker was open: the replica was never touched, so it
// must not be marked down or counted as a failover.
var errBreakerOpen = errors.New("fleet: breaker open")

// attemptResult is one replica dispatch outcome.
type attemptResult struct {
	name   string
	status int
	header http.Header
	body   []byte
	err    error // transport failure (safe to retry elsewhere)
	hedged bool
}

// attempt runs one replica dispatch and reports into out. The
// replica's breaker is consulted at dispatch time (unless bypass —
// the everyone-open fail-open) and fed the outcome: injected
// per-replica faults count exactly like real transport failures, and
// a context killed mid-flight returns the probe slot instead of
// blaming the replica.
func (rt *Router) attempt(ctx context.Context, name, endpoint, reqID string, body []byte, hedged, bypass bool, out chan<- attemptResult) {
	m := rt.members[name]
	m.inflight.Add(1)
	defer m.inflight.Add(-1)
	br := m.breaker
	observed := false
	if !bypass {
		if !br.Allow() {
			rt.ctr.breakerRejects.Inc()
			out <- attemptResult{name: name, err: errBreakerOpen, hedged: hedged}
			return
		}
		observed = true
	}
	observe := func(transportErr bool, latency time.Duration) {
		if !observed {
			return
		}
		if transportErr && ctx.Err() != nil {
			// The deadline, not the replica, killed the attempt.
			br.Cancel()
			return
		}
		br.Observe(transportErr, latency)
	}
	// The clock starts before the fault point: injected transport
	// latency is replica slowness as far as SlowAfter is concerned.
	start := time.Now()
	if err := fault.HitContext(ctx, PointForwardReplica(name)); err != nil {
		observe(true, 0)
		out <- attemptResult{name: name, err: err, hedged: hedged}
		return
	}
	status, header, rbody, err := m.rep.post(ctx, endpoint, reqID, body)
	observe(err != nil, time.Since(start))
	out <- attemptResult{name: name, status: status, header: header, body: rbody, err: err, hedged: hedged}
}

// forward dispatches one request to the fleet: consistent-hash pick,
// hedge after HedgeDelay of silence, failover across remaining
// replicas on transport errors. Exactly one replica answer is
// returned per request — losing hedges are canceled and discarded —
// as its 200 headers and body, and the expected fleet generation at
// dispatch rides along for the mixed-version check.
func (rt *Router) forward(ctx context.Context, endpoint, key string, body []byte) (http.Header, []byte, uint64, error) {
	rt.flip.RLock()
	defer rt.flip.RUnlock()
	expect := rt.fleetGen.Load()
	reqID := serve.RequestIDFrom(ctx)
	rt.ctr.forwards.Inc()
	if err := fault.Hit(PointForward); err != nil {
		return nil, nil, 0, &serve.StatusError{Code: http.StatusServiceUnavailable, Msg: "router degraded: " + err.Error()}
	}
	order := rt.pickOrder(key)
	if len(order) == 0 {
		return nil, nil, 0, &serve.StatusError{Code: http.StatusServiceUnavailable, Msg: "no alive replicas"}
	}
	// Fail open when every candidate's breaker rejects: a request
	// served badly beats a request not served, and the attempts double
	// as recovery signal.
	bypass := true
	for _, name := range order {
		if rt.members[name].breaker.Admissible() {
			bypass = false
			break
		}
	}
	if bypass {
		rt.ctr.breakerBypasses.Inc()
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan attemptResult, len(order))
	next, launched := 1, 1 // order[0], the primary, runs on this goroutine below
	launch := func(hedged bool) bool {
		if next >= len(order) {
			return false
		}
		name := order[next]
		next++
		launched++
		go rt.attempt(actx, name, endpoint, reqID, body, hedged, bypass, results)
		return true
	}
	var hedgeC <-chan time.Time
	if !rt.cfg.NoHedge && len(order) > 1 {
		timer := time.NewTimer(rt.cfg.HedgeDelay)
		defer timer.Stop()
		hedgeC = timer.C
	}
	// settle waits for the answer that decides the request, hedging and
	// failing over as attempts report.
	settle := func() (http.Header, []byte, error) {
		var lastErr error
		for {
			select {
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			case <-hedgeC:
				hedgeC = nil
				if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= 0 {
					// The budget is exhausted: a hedge could never finish,
					// so don't spend a second replica's capacity on it.
					continue
				}
				if launch(true) {
					rt.ctr.hedges.Inc()
				}
			case res := <-results:
				launched--
				if res.err != nil {
					if ctx.Err() != nil {
						// The deadline, not the replica, killed the attempt.
						return nil, nil, ctx.Err()
					}
					lastErr = res.err
					if errors.Is(res.err, errBreakerOpen) {
						// Rejected locally; the replica was never touched,
						// so its health record must not change.
					} else {
						rt.ctr.failovers.Inc()
						rt.replicaDown(res.name, res.err)
					}
					if launched == 0 && !launch(res.hedged) {
						return nil, nil, &serve.StatusError{Code: http.StatusServiceUnavailable,
							Msg: fmt.Sprintf("all replicas failed (last: %v)", lastErr)}
					}
					continue
				}
				if res.hedged {
					rt.ctr.hedgeWins.Inc()
				}
				if res.status != http.StatusOK {
					// The replica answered: its verdict passes through.
					return nil, nil, &serve.StatusError{Code: res.status, Msg: errorBody(res.body)}
				}
				return res.header, res.body, nil
			}
		}
	}
	type settled struct {
		header http.Header
		body   []byte
		err    error
	}
	done := make(chan settled, 1)
	go func() {
		// Settling cancels whatever is still running, the primary
		// included, so the wait for it below ends promptly.
		defer cancel()
		h, b, err := settle()
		done <- settled{h, b, err}
	}()
	// The primary attempt runs on the caller's goroutine, whose stack
	// the HTTP server has already grown: a fresh goroutine would grow
	// and copy its stack through net/http on every request.
	rt.attempt(actx, order[0], endpoint, reqID, body, false, bypass, results)
	out := <-done
	if out.err != nil {
		return nil, nil, 0, out.err
	}
	return out.header, out.body, expect, nil
}

// checkGen counts responses whose generation disagrees with the fleet
// generation read at dispatch. The drain-and-flip makes this
// impossible in a healthy fleet; a nonzero counter means a replica
// was reloaded behind the router's back.
func (rt *Router) checkGen(got, expect uint64) {
	if expect != 0 && got != expect {
		rt.ctr.genMismatches.Inc()
		rt.logf("fleet: response generation %d != fleet generation %d", got, expect)
	}
}

// Infer implements serve.Backend: the client's body goes
// to the fleet verbatim, and the winning replica's 200 body comes back
// unchanged. The degrade level and model generation are read from the
// replica's X-Degrade-Level and X-Model-Generation headers, so the
// router never decodes the answer; a 200 missing either is a 502.
func (rt *Router) Infer(ctx context.Context, endpoint, src string, body []byte) (serve.Answer, error) {
	header, rbody, expect, err := rt.forward(ctx, endpoint, src, body)
	if err != nil {
		return serve.Answer{}, err
	}
	gen, err := strconv.ParseUint(header.Get(serve.GenerationHeader), 10, 64)
	if err != nil {
		return serve.Answer{}, badReplicaResponse(serve.GenerationHeader, err)
	}
	level, err := strconv.Atoi(header.Get(serve.DegradeHeader))
	if err == nil && level < 0 {
		err = fmt.Errorf("negative level %d", level)
	}
	if err != nil {
		return serve.Answer{}, badReplicaResponse(serve.DegradeHeader, err)
	}
	rt.checkGen(gen, expect)
	return serve.Answer{Body: rbody, Level: level, Generation: gen}, nil
}

func badReplicaResponse(what string, err error) error {
	return &serve.StatusError{Code: http.StatusBadGateway, Msg: "bad replica response: " + what + ": " + err.Error()}
}

// Attribute is the typed face of Infer for in-process callers: the
// request is encoded and the answer decoded.
func (rt *Router) Attribute(ctx context.Context, src string) (serve.AttributeResponse, error) {
	var out serve.AttributeResponse
	err := rt.forwardTyped(ctx, "attribute", src, &out)
	return out, err
}

// Detect is the typed face of Infer like Attribute.
func (rt *Router) Detect(ctx context.Context, src string) (serve.DetectResponse, error) {
	var out serve.DetectResponse
	err := rt.forwardTyped(ctx, "detect", src, &out)
	return out, err
}

// forwardTyped runs one typed request through Infer and
// decodes the answer into out.
func (rt *Router) forwardTyped(ctx context.Context, endpoint, src string, out any) error {
	body, err := json.Marshal(serve.AttributeRequest{Source: src})
	if err != nil {
		return err
	}
	ans, err := rt.Infer(ctx, endpoint, src, body)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(ans.Body, out); err != nil {
		return badReplicaResponse("body", err)
	}
	return nil
}

// Health implements serve.Backend: the fleet is ok while any replica
// is in rotation, and a model counts as loaded while the last
// successful probe of some in-rotation replica reported it. A replica
// out of rotation answers no request, so its flags do not count.
func (rt *Router) Health() serve.HealthResponse {
	var oracle, detector bool
	for _, name := range rt.names {
		if !rt.ring.IsAlive(name) {
			continue
		}
		m := rt.members[name]
		m.mu.Lock()
		oracle, detector = oracle || m.oracle, detector || m.detector
		m.mu.Unlock()
	}
	status := "ok"
	if len(rt.ring.Alive()) == 0 {
		status = "degraded"
	}
	return serve.HealthResponse{
		Status:          status,
		ModelGeneration: rt.fleetGen.Load(),
		Oracle:          oracle,
		Detector:        detector,
	}
}

// Reload implements serve.Backend as a full coordinated reload.
func (rt *Router) Reload() (uint64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), reloadTimeout)
	defer cancel()
	return rt.CoordinatedReload(ctx)
}

// Stage implements serve.Stager: phase one only, fleet-wide.
func (rt *Router) Stage() (uint64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), reloadTimeout)
	defer cancel()
	rt.reloadMu.Lock()
	defer rt.reloadMu.Unlock()
	return rt.stagePhase(ctx)
}

// Commit implements serve.Stager: phase two only, fleet-wide.
func (rt *Router) Commit() (uint64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), reloadTimeout)
	defer cancel()
	rt.reloadMu.Lock()
	defer rt.reloadMu.Unlock()
	return rt.commitPhase(ctx)
}

// CoordinatedReload propagates the next model generation across the
// fleet with no mixed-version window: stage everywhere (old
// generation keeps serving), then drain-and-flip everywhere. Returns
// the new fleet generation.
func (rt *Router) CoordinatedReload(ctx context.Context) (uint64, error) {
	rt.reloadMu.Lock()
	defer rt.reloadMu.Unlock()
	if _, err := rt.stagePhase(ctx); err != nil {
		return 0, err
	}
	return rt.commitPhase(ctx)
}

// fanOut calls op on every in-rotation replica in parallel and returns
// their names with each call's generation and error, index-aligned.
func (rt *Router) fanOut(ctx context.Context, op func(*Replica, context.Context) (uint64, error)) ([]string, []uint64, []error) {
	alive := rt.ring.Alive()
	gens := make([]uint64, len(alive))
	errs := make([]error, len(alive))
	var wg sync.WaitGroup
	for i, name := range alive {
		wg.Add(1)
		go func(i int, rep *Replica) {
			defer wg.Done()
			gens[i], errs[i] = op(rep, ctx)
		}(i, rt.members[name].rep)
	}
	wg.Wait()
	return alive, gens, errs
}

// stagePhase stages the next generation on every in-rotation replica,
// aborting wholesale on any failure (staged generations elsewhere
// stay unpublished and are replaced by the next stage). Returns the
// highest staged generation. Callers hold reloadMu.
func (rt *Router) stagePhase(ctx context.Context) (uint64, error) {
	if err := fault.Hit(PointReloadStage); err != nil {
		return 0, fmt.Errorf("fleet: reload aborted before stage: %w", err)
	}
	alive, gens, errs := rt.fanOut(ctx, (*Replica).Stage)
	if len(alive) == 0 {
		return 0, fmt.Errorf("fleet: no alive replicas to stage")
	}
	var maxStaged uint64
	for i, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("fleet: stage on %s failed, reload aborted: %w", alive[i], err)
		}
		if gens[i] > maxStaged {
			maxStaged = gens[i]
		}
	}
	rt.ctr.stages.Inc()
	rt.logf("fleet: staged generation on %d replicas", len(alive))
	return maxStaged, nil
}

// commitPhase is the flip: under the gate (which drains in-flight
// forwards), commit every in-rotation replica, heal any that answered
// with a lagging generation, drop any that cannot be healed, and
// adopt the new fleet generation. Callers hold reloadMu.
func (rt *Router) commitPhase(ctx context.Context) (uint64, error) {
	if err := fault.Hit(PointReloadCommit); err != nil {
		return 0, fmt.Errorf("fleet: reload aborted before flip: %w", err)
	}
	rt.flip.Lock()
	defer rt.flip.Unlock()
	alive, gens, errs := rt.fanOut(ctx, (*Replica).Commit)
	if len(alive) == 0 {
		return 0, fmt.Errorf("fleet: no alive replicas to commit")
	}
	var newGen uint64
	committed := 0
	var lastErr error
	for i := range alive {
		if errs[i] != nil {
			lastErr = errs[i]
			continue
		}
		committed++
		if gens[i] > newGen {
			newGen = gens[i]
		}
	}
	if committed == 0 {
		return 0, fmt.Errorf("fleet: every commit failed (last: %v)", lastErr)
	}
	// Stragglers must not serve the old generation once the gate
	// lifts: heal them inside the gate or take them out of rotation.
	for i, name := range alive {
		if errs[i] == nil && gens[i] == newGen {
			continue
		}
		if err := rt.heal(ctx, name, newGen); err != nil {
			rt.takeDown(name)
			rt.logf("fleet: replica %s missed the flip to generation %d, out of rotation: %v", name, newGen, err)
		}
	}
	rt.fleetGen.Store(newGen)
	rt.ctr.reloads.Inc()
	rt.met.Gauge("fleet_generation").Set(int64(newGen))
	rt.logf("fleet: coordinated reload complete, fleet at generation %d (%d/%d replicas)",
		newGen, len(rt.ring.Alive()), len(rt.names))
	return newGen, nil
}

// Observe implements serve.Backend: refresh fleet gauges for
// /metrics. model_generation mirrors the replica-side gauge name so
// dashboards read either tier identically.
func (rt *Router) Observe(met *metrics.Registry) {
	met.Gauge("fleet_alive_replicas").Set(int64(len(rt.ring.Alive())))
	met.Gauge("fleet_generation").Set(int64(rt.fleetGen.Load()))
	met.Gauge("model_generation").Set(int64(rt.fleetGen.Load()))
}

// Status reports the fleet view for GET /fleet/status.
func (rt *Router) Status() FleetStatus {
	sts := make([]ReplicaStatus, len(rt.names))
	for i, name := range rt.names {
		sts[i] = rt.members[name].status(rt.ring.IsAlive(name))
	}
	return FleetStatus{
		Generation:     rt.fleetGen.Load(),
		AliveReplicas:  len(rt.ring.Alive()),
		Replicas:       sts,
		Forwards:       rt.ctr.forwards.Value(),
		Failovers:      rt.ctr.failovers.Value(),
		Hedges:         rt.ctr.hedges.Value(),
		HedgeWins:      rt.ctr.hedgeWins.Value(),
		GenMismatches:  rt.ctr.genMismatches.Value(),
		Restores:       rt.ctr.restores.Value(),
		BreakerOpens:   rt.ctr.breakerOpens.Value(),
		BreakerRejects: rt.ctr.breakerRejects.Value(),
	}
}
