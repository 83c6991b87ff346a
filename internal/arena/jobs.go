package arena

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Job-admission sentinels. The serving layer maps them onto its
// saturation contract (429 + Retry-After, 503 on shutdown, 404 for
// unknown jobs).
var (
	// ErrSaturated: the job queue is full; the submit was not accepted.
	ErrSaturated = errors.New("arena: evasion queue saturated")
	// ErrClosed: the manager is draining; no new jobs are accepted.
	ErrClosed = errors.New("arena: evasion manager closed")
	// ErrUnknownJob: no job with that ID (never accepted, or evicted).
	ErrUnknownJob = errors.New("arena: unknown evasion job")
)

// JobState is one evasion job's lifecycle position.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// JobSpec is one submitted evasion query.
type JobSpec struct {
	Source       string
	TrueAuthor   string
	TargetAuthor string
	Strategy     Strategy
	Budget       int
	MaxDepth     int
	Seed         int64
	VerifyInputs []string
}

// JobStatus is a point-in-time snapshot of one job.
type JobStatus struct {
	ID    string
	State JobState
	// Result is set once State is JobDone.
	Result *Result
	// Err is set once State is JobFailed or JobCanceled.
	Err string
}

// RunFunc executes one evasion search; the Manager bounds and
// supervises it. Production wiring runs arena.Attack against the
// serving model; tests substitute stubs.
type RunFunc func(ctx context.Context, spec JobSpec) (*Result, error)

// ManagerConfig bounds the evasion workload.
type ManagerConfig struct {
	// MaxRunning is the number of concurrently running searches
	// (default 2). Evasion jobs are orders of magnitude heavier than
	// inference requests, so this is deliberately small.
	MaxRunning int
	// MaxQueued bounds accepted-but-not-yet-running jobs (default 8).
	// A full queue refuses submits with ErrSaturated — the serving
	// layer's exact-N 429 contract.
	MaxQueued int
	// JobTimeout bounds one search's run time (default 60s). A search
	// hitting it ends as JobDone with a Truncated best-so-far result.
	JobTimeout time.Duration
	// MaxRetained bounds remembered terminal jobs (default 1024);
	// beyond it the oldest terminal job is evicted and later polls for
	// it answer ErrUnknownJob.
	MaxRetained int
}

func (c ManagerConfig) withDefaults() ManagerConfig {
	if c.MaxRunning <= 0 {
		c.MaxRunning = 2
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 8
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 60 * time.Second
	}
	if c.MaxRetained <= 0 {
		c.MaxRetained = 1024
	}
	return c
}

// job is the manager-internal record; state transitions happen under
// the manager mutex and terminal transitions close done exactly once.
type job struct {
	id     string
	spec   JobSpec
	state  JobState
	result *Result
	err    string
	done   chan struct{}
}

// Manager runs bounded asynchronous evasion jobs: submit/poll/result
// with admission-capped concurrency and graceful drain. It is the
// engine behind POST /v1/evade.
type Manager struct {
	cfg    ManagerConfig
	run    RunFunc
	base   context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	terminal []string // eviction order for finished jobs
	nextID   uint64
	closed   bool

	queue chan *job
}

// NewManager starts the worker pool. run executes each accepted job.
func NewManager(cfg ManagerConfig, run RunFunc) *Manager {
	cfg = cfg.withDefaults()
	base, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:    cfg,
		run:    run,
		base:   base,
		cancel: cancel,
		jobs:   make(map[string]*job),
		queue:  make(chan *job, cfg.MaxQueued),
	}
	for i := 0; i < cfg.MaxRunning; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Submit accepts one job or refuses it without blocking: ErrClosed
// while draining, ErrSaturated when MaxRunning searches are live and
// MaxQueued more are already waiting.
func (m *Manager) Submit(spec JobSpec) (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return "", ErrClosed
	}
	m.nextID++
	j := &job{
		id:    fmt.Sprintf("e%d", m.nextID),
		spec:  spec,
		state: JobQueued,
		done:  make(chan struct{}),
	}
	select {
	case m.queue <- j:
	default:
		m.nextID--
		return "", ErrSaturated
	}
	m.jobs[j.id] = j
	return j.id, nil
}

// Status snapshots one job.
func (m *Manager) Status(id string) (JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	return m.snapshot(j), nil
}

// Wait blocks until the job reaches a terminal state or ctx expires
// (returning ctx's error, which the serving layer maps to 504).
func (m *Manager) Wait(ctx context.Context, id string) (JobStatus, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	select {
	case <-j.done:
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.snapshot(j), nil
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
}

// Close drains gracefully: no new submits are accepted, running
// searches are cancelled (they finish as JobDone with Truncated
// best-so-far results, or JobCanceled when they had not started
// scoring), queued jobs are cancelled, and Close returns once every
// accepted job has reached a terminal state. Idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	close(m.queue)
	m.mu.Unlock()
	m.cancel()
	m.wg.Wait()
}

// worker drains the queue until Close.
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.runJob(j)
	}
}

// runJob executes one accepted job under the manager's base context
// and the per-job timeout.
func (m *Manager) runJob(j *job) {
	if m.base.Err() != nil {
		m.finish(j, nil, m.base.Err())
		return
	}
	m.mu.Lock()
	j.state = JobRunning
	m.mu.Unlock()
	ctx, cancel := context.WithTimeout(m.base, m.cfg.JobTimeout)
	res, err := m.run(ctx, j.spec)
	cancel()
	m.finish(j, res, err)
}

// finish records a terminal state and releases waiters.
func (m *Manager) finish(j *job, res *Result, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case err == nil && res != nil:
		j.state, j.result = JobDone, res
	case errors.Is(err, context.Canceled):
		j.state, j.err = JobCanceled, "canceled by shutdown"
	case err == nil:
		j.state, j.err = JobFailed, "search returned no result"
	default:
		j.state, j.err = JobFailed, err.Error()
	}
	close(j.done)
	m.terminal = append(m.terminal, j.id)
	for len(m.terminal) > m.cfg.MaxRetained {
		delete(m.jobs, m.terminal[0])
		m.terminal = m.terminal[1:]
	}
}

// snapshot copies a job's visible state; callers hold m.mu.
func (m *Manager) snapshot(j *job) JobStatus {
	return JobStatus{ID: j.id, State: j.state, Result: j.result, Err: j.err}
}
