package fleet

import (
	"sort"
	"sync"
)

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
	// ConsecutiveFailures counts probe/forward failures since the last
	// success.
	ConsecutiveFailures int `json:"consecutive_failures,omitempty"`
	// Inflight is the router's outstanding request count against this
	// replica (the power-of-two-choices load signal).
	Inflight int64 `json:"inflight"`
	// Breaker is the circuit-breaker position ("closed", "open",
	// "half-open"); BreakerFailureRate its windowed failure fraction.
	Breaker            string  `json:"breaker,omitempty"`
	BreakerFailureRate float64 `json:"breaker_failure_rate,omitempty"`
}

// Tracker keeps per-replica health observations: consecutive-failure
// counting with a dead threshold, plus the generation and model
// presence reported by the last successful /healthz probe. It is the
// bookkeeping half of failure detection; the Router owns the policy
// (when to heal, when to return a replica to the ring).
type Tracker struct {
	mu        sync.Mutex
	deadAfter int
	states    map[string]*replicaHealth
}

type replicaHealth struct {
	alive    bool
	fails    int
	gen      uint64
	staged   uint64
	oracle   bool
	detector bool
}

// NewTracker builds a tracker that declares a replica dead after
// deadAfter consecutive failures (<= 0 selects 2). Replicas start
// alive with zero observations.
func NewTracker(deadAfter int) *Tracker {
	if deadAfter <= 0 {
		deadAfter = 2
	}
	return &Tracker{deadAfter: deadAfter, states: make(map[string]*replicaHealth)}
}

// Track registers a replica (alive, unobserved). Idempotent.
func (t *Tracker) Track(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.states[name]; !ok {
		t.states[name] = &replicaHealth{alive: true}
	}
}

// state returns the tracked entry, registering on first touch.
func (t *Tracker) state(name string) *replicaHealth {
	s, ok := t.states[name]
	if !ok {
		s = &replicaHealth{alive: true}
		t.states[name] = s
	}
	return s
}

// ObserveSuccess records one successful probe and its payload,
// reporting whether the replica was dead (the Router then decides
// whether it may rejoin the ring — a lagging generation heals first).
func (t *Tracker) ObserveSuccess(name string, gen, staged uint64, oracle, detector bool) (wasDead bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.state(name)
	wasDead = !s.alive
	s.fails = 0
	s.gen, s.staged = gen, staged
	s.oracle, s.detector = oracle, detector
	return wasDead
}

// ObserveFailure records one failed probe or forward, reporting
// whether this one crossed the dead threshold.
func (t *Tracker) ObserveFailure(name string) (becameDead bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.state(name)
	s.fails++
	if s.alive && s.fails >= t.deadAfter {
		s.alive = false
		return true
	}
	return false
}

// MarkDead takes a replica out immediately (a forward saw its
// connection die — no reason to wait for the probe loop to agree).
// Reports whether it was alive.
func (t *Tracker) MarkDead(name string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.state(name)
	wasAlive := s.alive
	s.alive = false
	if s.fails == 0 {
		s.fails = 1
	}
	return wasAlive
}

// MarkAlive returns a replica to service (after the Router healed it).
func (t *Tracker) MarkAlive(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.state(name)
	s.alive = true
	s.fails = 0
}

// ModelsSeen reports whether any tracked replica has reported an
// oracle and whether any has reported a detector.
func (t *Tracker) ModelsSeen() (oracle, detector bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.states {
		oracle = oracle || s.oracle
		detector = detector || s.detector
	}
	return oracle, detector
}

// Statuses renders every tracked replica, sorted by name.
func (t *Tracker) Statuses() []ReplicaStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]ReplicaStatus, 0, len(t.states))
	for name, s := range t.states {
		out = append(out, ReplicaStatus{
			Name:                name,
			Alive:               s.alive,
			Generation:          s.gen,
			StagedGeneration:    s.staged,
			Oracle:              s.oracle,
			Detector:            s.detector,
			ConsecutiveFailures: s.fails,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
