package fleet

import (
	"fmt"
	"testing"
)

// Remove deletes a member and its points. Reports false when absent.
// The router's membership is fixed at construction, so only the ring's
// own tests and FuzzRing remove members.
func (r *Ring) Remove(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[name]; !ok {
		return false
	}
	delete(r.members, name)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.name != name {
			kept = append(kept, p)
		}
	}
	r.points = kept
	return true
}

func ringOf(t *testing.T, names ...string) *Ring {
	t.Helper()
	r := NewRing(DefaultVnodes)
	for _, n := range names {
		if !r.Add(n) {
			t.Fatalf("Add(%q) = false", n)
		}
	}
	return r
}

// sampleKeys derives a deterministic key set large enough to exercise
// every arc of a small ring.
func sampleKeys(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("key-%06d-%d", i, i*i))
	}
	return out
}

// owners maps every sample key to its current owner ("" = none).
func owners(r *Ring, keys [][]byte) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i], _ = r.Owner(k)
	}
	return out
}

func TestRingOwnerDeterministic(t *testing.T) {
	r := ringOf(t, "a", "b", "c")
	keys := sampleKeys(256)
	first := owners(r, keys)
	for round := 0; round < 3; round++ {
		for i, k := range keys {
			if got, _ := r.Owner(k); got != first[i] {
				t.Fatalf("key %q: owner %q, was %q", k, got, first[i])
			}
		}
	}
}

func TestRingBalance(t *testing.T) {
	r := ringOf(t, "a", "b", "c")
	keys := sampleKeys(6000)
	count := map[string]int{}
	for _, k := range keys {
		name, ok := r.Owner(k)
		if !ok {
			t.Fatal("no owner on a fully alive ring")
		}
		count[name]++
	}
	// Fair share is 2000; vnode placement keeps every replica within
	// a factor of ~2 of it, which is all affinity routing needs.
	for _, n := range []string{"a", "b", "c"} {
		if count[n] < 1000 || count[n] > 4000 {
			t.Errorf("member %s owns %d of 6000 keys, outside [1000, 4000]", n, count[n])
		}
	}
}

// TestRingAddMovesOnlyToNewMember pins the consistent-hashing
// property: adding a member only moves the keys that member gains.
func TestRingAddMovesOnlyToNewMember(t *testing.T) {
	r := ringOf(t, "a", "b", "c")
	keys := sampleKeys(2000)
	before := owners(r, keys)
	r.Add("d")
	moved := 0
	for i, k := range keys {
		after, _ := r.Owner(k)
		if after != before[i] {
			moved++
			if after != "d" {
				t.Fatalf("key %q moved %q -> %q on Add(d)", k, before[i], after)
			}
		}
	}
	if moved == 0 {
		t.Error("Add(d) moved no keys at all")
	}
	if moved > len(keys)/2 {
		t.Errorf("Add(d) moved %d of %d keys, far beyond its fair share", moved, len(keys))
	}
}

// TestRingRemoveMovesOnlyLostKeys pins the inverse: removing a member
// only moves the keys it owned.
func TestRingRemoveMovesOnlyLostKeys(t *testing.T) {
	r := ringOf(t, "a", "b", "c", "d")
	keys := sampleKeys(2000)
	before := owners(r, keys)
	r.Remove("d")
	for i, k := range keys {
		after, _ := r.Owner(k)
		if after != before[i] && before[i] != "d" {
			t.Fatalf("key %q moved %q -> %q though d was removed", k, before[i], after)
		}
		if before[i] == "d" && after == "d" {
			t.Fatalf("key %q still owned by removed member", k)
		}
	}
}

// TestRingSetAliveReportsChange pins the transition report the router
// uses to log and count a replica leaving rotation exactly once.
func TestRingSetAliveReportsChange(t *testing.T) {
	r := ringOf(t, "a")
	for i, step := range []struct {
		name  string
		alive bool
		want  bool
	}{
		{"a", true, false}, // already alive
		{"a", false, true},
		{"a", false, false}, // already dead
		{"a", true, true},
		{"zz", false, false}, // absent
	} {
		if got := r.SetAlive(step.name, step.alive); got != step.want {
			t.Errorf("step %d: SetAlive(%q, %v) = %v, want %v", i, step.name, step.alive, got, step.want)
		}
	}
}

// TestRingDeadSpillAndReturn pins the aliveness bit: a dead member's
// keys spill to its successors and come straight back on revival.
func TestRingDeadSpillAndReturn(t *testing.T) {
	r := ringOf(t, "a", "b", "c")
	keys := sampleKeys(2000)
	before := owners(r, keys)
	r.SetAlive("b", false)
	for i, k := range keys {
		after, ok := r.Owner(k)
		if !ok || after == "b" {
			t.Fatalf("key %q maps to dead member (owner %q ok=%v)", k, after, ok)
		}
		if before[i] != "b" && after != before[i] {
			t.Fatalf("key %q moved %q -> %q though only b died", k, before[i], after)
		}
	}
	r.SetAlive("b", true)
	for i, k := range keys {
		after, _ := r.Owner(k)
		if after != before[i] {
			t.Fatalf("key %q did not return to %q after revival (got %q)", k, before[i], after)
		}
	}
}

func TestRingOwnersFailoverOrder(t *testing.T) {
	r := ringOf(t, "a", "b", "c")
	keys := sampleKeys(200)
	for _, k := range keys {
		ord := r.Owners(k, 3)
		if len(ord) != 3 {
			t.Fatalf("Owners(%q, 3) = %v", k, ord)
		}
		seen := map[string]bool{}
		for _, n := range ord {
			if seen[n] {
				t.Fatalf("Owners(%q) repeats %q: %v", k, n, ord)
			}
			seen[n] = true
		}
		// The failover order must be consistent with what actually
		// happens when the owner dies.
		r.SetAlive(ord[0], false)
		next, _ := r.Owner(k)
		r.SetAlive(ord[0], true)
		if next != ord[1] {
			t.Fatalf("key %q: Owners=%v but death of %s routes to %s", k, ord, ord[0], next)
		}
	}
}

func TestRingNoAliveMembers(t *testing.T) {
	r := ringOf(t, "a", "b")
	r.SetAlive("a", false)
	r.SetAlive("b", false)
	if name, ok := r.Owner([]byte("k")); ok {
		t.Fatalf("Owner on all-dead ring = %q, want none", name)
	}
	if got := r.Owners([]byte("k"), 2); len(got) != 0 {
		t.Fatalf("Owners on all-dead ring = %v", got)
	}
}

func TestRingInvalidAndDuplicateNames(t *testing.T) {
	r := NewRing(8)
	for _, bad := range []string{"", "has space", "tab\there", "nl\nhere", "\x7f"} {
		if r.Add(bad) {
			t.Errorf("Add(%q) accepted an invalid name", bad)
		}
	}
	if !r.Add("ok") || r.Add("ok") {
		t.Error("duplicate Add not rejected")
	}
}
