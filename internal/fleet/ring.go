package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// Ring is a consistent-hashing ring over named replicas. Each member
// owns Vnodes points on a 64-bit hash circle; a key's owner is the
// first point clockwise from the key's hash whose member is alive.
// Because point positions are a pure function of member names, adding
// or removing one member moves only the keys that member gains or
// loses — every other key keeps its owner, which is what preserves
// per-replica feature-cache affinity across membership churn.
//
// Members carry an aliveness bit separate from membership: a dead
// replica keeps its ring points (so its keys come straight back when
// it recovers) but is skipped during lookup, spilling its keys to the
// next alive member clockwise.
type Ring struct {
	mu      sync.RWMutex
	vnodes  int
	members map[string]bool // name -> alive
	points  []ringPoint     // sorted by hash
}

type ringPoint struct {
	hash uint64
	name string
}

// DefaultVnodes balances ownership evenly enough for small fleets
// (spread stays within ~20% of fair share at 3–16 replicas) while
// keeping membership changes cheap.
const DefaultVnodes = 64

// NewRing builds an empty ring with the given points per member
// (<= 0 selects DefaultVnodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Ring{vnodes: vnodes, members: make(map[string]bool)}
}

// mix64 is a splitmix64-style finalizer. FNV alone scatters short
// inputs (single-letter names, small vnode indices) unevenly across
// the high bits, which skews arc ownership badly at 64 vnodes; the
// finalizer's full avalanche restores an even spread.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashKey positions a key on the circle.
func hashKey(key []byte) uint64 {
	h := fnv.New64a()
	h.Write(key)
	return mix64(h.Sum64())
}

// pointHash positions one member vnode on the circle.
func pointHash(name string, i int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s#%d", name, i)
	return mix64(h.Sum64())
}

// ValidName reports whether name can be a ring member: non-empty,
// printable, no whitespace, so a name stays one token in log lines and
// status output.
func ValidName(name string) bool {
	if name == "" {
		return false
	}
	for _, c := range name {
		if c <= ' ' || c == 0x7f {
			return false
		}
	}
	return true
}

// Add inserts a member (alive). Reports false when already present or
// the name is invalid (see ValidName).
func (r *Ring) Add(name string) bool {
	if !ValidName(name) {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[name]; ok {
		return false
	}
	r.members[name] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: pointHash(name, i), name: name})
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Hash ties (vanishingly rare, but the fuzzer will find them
		// eventually) break on name so the layout stays deterministic.
		return r.points[a].name < r.points[b].name
	})
	return true
}

// SetAlive sets a member's aliveness and reports whether it changed
// (false when absent). The check and the write share one lock, so of
// concurrent callers taking a member down exactly one sees the change:
// that caller logs and counts the transition.
func (r *Ring) SetAlive(name string, alive bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	was, ok := r.members[name]
	if !ok || was == alive {
		return false
	}
	r.members[name] = alive
	return true
}

// IsAlive reports a member's aliveness (false when absent).
func (r *Ring) IsAlive(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.members[name]
}

// Alive lists the alive members, sorted.
func (r *Ring) Alive() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.members))
	for name, alive := range r.members {
		if alive {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Owner returns the alive member owning key, or ok=false when no
// member is alive.
func (r *Ring) Owner(key []byte) (string, bool) {
	owners := r.Owners(key, 1)
	if len(owners) == 0 {
		return "", false
	}
	return owners[0], true
}

// Owners returns up to n distinct alive members in ring order from
// key's position: the owner first, then the members that would take
// over if earlier ones died. This is the router's failover and hedge
// order.
func (r *Ring) Owners(key []byte, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if n <= 0 || len(r.points) == 0 {
		return nil
	}
	kh := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kh })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.name] || !r.members[p.name] {
			continue
		}
		seen[p.name] = true
		out = append(out, p.name)
	}
	return out
}
