package arena

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// blockingRun returns a RunFunc that signals each start and blocks
// until released (or its context dies, returning a truncated result).
func blockingRun() (run RunFunc, started chan string, release chan struct{}) {
	started = make(chan string, 64)
	release = make(chan struct{})
	run = func(ctx context.Context, spec JobSpec) (*Result, error) {
		started <- spec.Source
		select {
		case <-release:
			return &Result{Success: true, Source: spec.Source}, nil
		case <-ctx.Done():
			return &Result{Source: spec.Source, Truncated: true}, nil
		}
	}
	return run, started, release
}

func TestManagerRunsJobs(t *testing.T) {
	m := NewManager(ManagerConfig{MaxRunning: 2, MaxQueued: 4}, func(ctx context.Context, spec JobSpec) (*Result, error) {
		return &Result{Success: true, Source: spec.Source}, nil
	})
	defer m.Close()
	id, err := m.Submit(JobSpec{Source: "s1", TrueAuthor: "A001"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || st.Result == nil || st.Result.Source != "s1" {
		t.Fatalf("job status: %+v", st)
	}
	if got, err := m.Status(id); err != nil || got.State != JobDone {
		t.Fatalf("poll after done: %+v %v", got, err)
	}
}

// TestManagerExactSaturation pins the admission contract: with
// MaxRunning searches live and MaxQueued more accepted, submit N+1
// is refused with ErrSaturated and NOTHING ELSE is disturbed.
func TestManagerExactSaturation(t *testing.T) {
	run, started, release := blockingRun()
	m := NewManager(ManagerConfig{MaxRunning: 2, MaxQueued: 3}, run)
	defer m.Close()

	var ids []string
	// Fill the running slots and wait until both searches are live.
	for i := 0; i < 2; i++ {
		id, err := m.Submit(JobSpec{Source: fmt.Sprintf("r%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("workers never picked up the jobs")
		}
	}
	// Fill the queue exactly.
	for i := 0; i < 3; i++ {
		id, err := m.Submit(JobSpec{Source: fmt.Sprintf("q%d", i)})
		if err != nil {
			t.Fatalf("queue slot %d refused: %v", i, err)
		}
		ids = append(ids, id)
	}
	// Exact N+1: the next submit must be refused.
	if _, err := m.Submit(JobSpec{Source: "overflow"}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("overflow submit: %v, want ErrSaturated", err)
	}
	// Releasing the searches drains everything; every accepted job
	// completes.
	close(release)
	for _, id := range ids {
		st, err := m.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != JobDone {
			t.Fatalf("%s: state %s", id, st.State)
		}
	}
	// Capacity is free again.
	if _, err := m.Submit(JobSpec{Source: "after"}); err != nil {
		t.Fatalf("post-drain submit refused: %v", err)
	}
}

func TestManagerWaitDeadline(t *testing.T) {
	run, started, release := blockingRun()
	m := NewManager(ManagerConfig{MaxRunning: 1, MaxQueued: 1}, run)
	defer func() { close(release); m.Close() }()
	id, err := m.Submit(JobSpec{Source: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := m.Wait(ctx, id); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait on a running job: %v, want deadline exceeded", err)
	}
	// The job itself is unharmed.
	if st, err := m.Status(id); err != nil || st.State.Terminal() {
		t.Fatalf("job state after waiter timeout: %+v %v", st, err)
	}
}

// TestManagerGracefulDrainMidSearch proves Close cancels live
// searches and every accepted job still reaches a terminal state.
func TestManagerGracefulDrainMidSearch(t *testing.T) {
	run, started, release := blockingRun()
	defer close(release)
	m := NewManager(ManagerConfig{MaxRunning: 1, MaxQueued: 2}, run)
	running, err := m.Submit(JobSpec{Source: "mid-search"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := m.Submit(JobSpec{Source: "still-queued"})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() { m.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not drain")
	}
	// The mid-search job was cancelled into a truncated best-so-far
	// answer — answered, not dropped.
	st, err := m.Status(running)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || st.Result == nil || !st.Result.Truncated {
		t.Fatalf("mid-search job after drain: %+v", st)
	}
	// The queued job was cancelled before starting.
	st, err = m.Status(queued)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobCanceled {
		t.Fatalf("queued job after drain: %+v", st)
	}
	// Submits after Close are refused with the shutdown sentinel.
	if _, err := m.Submit(JobSpec{Source: "late"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit: %v, want ErrClosed", err)
	}
}

func TestManagerJobTimeoutTruncates(t *testing.T) {
	run, _, release := blockingRun()
	defer close(release)
	m := NewManager(ManagerConfig{MaxRunning: 1, MaxQueued: 1, JobTimeout: 30 * time.Millisecond}, run)
	defer m.Close()
	id, err := m.Submit(JobSpec{Source: "budgeted"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || st.Result == nil || !st.Result.Truncated {
		t.Fatalf("timed-out job: %+v", st)
	}
}

func TestManagerFailedJob(t *testing.T) {
	m := NewManager(ManagerConfig{}, func(ctx context.Context, spec JobSpec) (*Result, error) {
		return nil, fmt.Errorf("oracle exploded")
	})
	defer m.Close()
	id, err := m.Submit(JobSpec{Source: "s"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobFailed || st.Err == "" {
		t.Fatalf("failed job: %+v", st)
	}
}

func TestManagerUnknownJob(t *testing.T) {
	m := NewManager(ManagerConfig{}, func(ctx context.Context, spec JobSpec) (*Result, error) {
		return &Result{}, nil
	})
	defer m.Close()
	if _, err := m.Status("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Status: %v", err)
	}
	if _, err := m.Wait(context.Background(), "nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Wait: %v", err)
	}
}

func TestManagerEvictsOldTerminalJobs(t *testing.T) {
	m := NewManager(ManagerConfig{MaxRunning: 1, MaxQueued: 8, MaxRetained: 2},
		func(ctx context.Context, spec JobSpec) (*Result, error) {
			return &Result{Source: spec.Source}, nil
		})
	defer m.Close()
	var ids []string
	for i := 0; i < 4; i++ {
		id, err := m.Submit(JobSpec{Source: fmt.Sprintf("s%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if _, err := m.Status(ids[0]); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("oldest job not evicted: %v", err)
	}
	if _, err := m.Status(ids[3]); err != nil {
		t.Fatalf("newest job evicted: %v", err)
	}
	active, finished := m.Stats()
	if active != 0 || finished != 2 {
		t.Fatalf("Stats = %d active %d finished, want 0/2", active, finished)
	}
}

// TestManagerConcurrentSubmitters hammers Submit/Wait under race.
func TestManagerConcurrentSubmitters(t *testing.T) {
	m := NewManager(ManagerConfig{MaxRunning: 4, MaxQueued: 16},
		func(ctx context.Context, spec JobSpec) (*Result, error) {
			return &Result{Source: spec.Source}, nil
		})
	defer m.Close()
	var wg sync.WaitGroup
	var okCount, satCount int64
	var mu sync.Mutex
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				id, err := m.Submit(JobSpec{Source: fmt.Sprintf("g%d-%d", g, i)})
				if errors.Is(err, ErrSaturated) {
					mu.Lock()
					satCount++
					mu.Unlock()
					continue
				}
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if _, err := m.Wait(context.Background(), id); err != nil {
					t.Errorf("wait: %v", err)
					return
				}
				mu.Lock()
				okCount++
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if okCount == 0 {
		t.Fatal("no jobs completed")
	}
	t.Logf("completed %d, saturated %d", okCount, satCount)
}

// Stats reports the manager's current occupancy: queued+running jobs
// and retained terminal jobs.
func (m *Manager) Stats() (active, finished int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.jobs) - len(m.terminal), len(m.terminal)
}
