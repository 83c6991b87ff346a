package fleet

import (
	"context"
	"fmt"
	"testing"
)

// replicaRow returns one replica's row of the fleet status report.
func replicaRow(t *testing.T, rt *Router, name string) ReplicaStatus {
	t.Helper()
	for _, rs := range rt.Status().Replicas {
		if rs.Name == name {
			return rs
		}
	}
	t.Fatalf("replica %s missing from status", name)
	return ReplicaStatus{}
}

// TestRouterStatusFollowsProbes pins the liveness bookkeeping that
// /fleet/status reports, step by step: probe failures count up, the
// DeadAfter-th one takes the replica out, a successful probe restores
// it at zero failures, and a forward-path transport death takes it out
// at once with one failure.
func TestRouterStatusFollowsProbes(t *testing.T) {
	fakes, rt, _ := newTestFleet(t, 2, func(c *Config) {
		c.NoHedge = true
		c.DeadAfter = 2
	})
	victim := fakes[0]
	ctx := context.Background()
	check := func(step string, alive bool, fails int) {
		t.Helper()
		rs := replicaRow(t, rt, victim.name)
		if rs.Alive != alive || rs.ConsecutiveFailures != fails {
			t.Errorf("%s: alive=%v failures=%d, want alive=%v failures=%d",
				step, rs.Alive, rs.ConsecutiveFailures, alive, fails)
		}
		if rt.ring.IsAlive(victim.name) != alive {
			t.Errorf("%s: ring aliveness disagrees with status", step)
		}
	}
	check("synced", true, 0)

	victim.kill()
	rt.ProbeAll(ctx)
	check("one failed probe", true, 1)
	rt.ProbeAll(ctx)
	check("DeadAfter failed probes", false, 2)

	victim.restart(false)
	rt.ProbeAll(ctx)
	check("revived and probed", true, 0)
	if st := rt.Status(); st.AliveReplicas != 2 || st.Restores != 1 {
		t.Errorf("after revive: alive=%d restores=%d, want 2 and 1", st.AliveReplicas, st.Restores)
	}

	// A forward to a key the victim owns discovers its death without
	// waiting for the prober.
	src := ""
	for i := 0; src == ""; i++ {
		cand := fmt.Sprintf("int k%d() { return %d; }", i, i)
		if owner, _ := rt.ring.Owner([]byte(cand)); owner == victim.name {
			src = cand
		}
	}
	victim.kill()
	if _, err := attribute(t, rt, src, "status-forward-death"); err != nil {
		t.Fatalf("request with its owner dead: %v", err)
	}
	check("forward-path death", false, 1)
}

// TestRouterHealthORsModelFlags pins that the fleet reports a model
// loaded while any replica's last successful probe reported it.
func TestRouterHealthORsModelFlags(t *testing.T) {
	fakes, rt, _ := newTestFleet(t, 2, func(c *Config) { c.NoHedge = true })
	ctx := context.Background()
	setNoDetector := func(f *fakeReplica) {
		f.mu.Lock()
		f.noDetector = true
		f.mu.Unlock()
	}

	setNoDetector(fakes[1])
	rt.ProbeAll(ctx)
	if rs := replicaRow(t, rt, fakes[1].name); !rs.Oracle || rs.Detector {
		t.Errorf("%s reports oracle=%v detector=%v, want true/false", rs.Name, rs.Oracle, rs.Detector)
	}
	if rs := replicaRow(t, rt, fakes[0].name); !rs.Oracle || !rs.Detector {
		t.Errorf("%s reports oracle=%v detector=%v, want true/true", rs.Name, rs.Oracle, rs.Detector)
	}
	if h := rt.Health(); !h.Oracle || !h.Detector {
		t.Errorf("one detector in the fleet: health oracle=%v detector=%v, want true/true", h.Oracle, h.Detector)
	}

	setNoDetector(fakes[0])
	rt.ProbeAll(ctx)
	if h := rt.Health(); !h.Oracle || h.Detector {
		t.Errorf("no detector in the fleet: health oracle=%v detector=%v, want true/false", h.Oracle, h.Detector)
	}
}
