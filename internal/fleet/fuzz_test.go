package fleet

import (
	"fmt"
	"testing"
)

// FuzzRing drives a ring through an arbitrary membership/aliveness op
// stream and checks the invariants the router leans on after every
// step:
//
//   - no key ever maps to a dead or absent member;
//   - a membership or aliveness change only moves the keys the
//     changed member gains or loses (the consistent-hashing bound —
//     everyone else's keys stay put).
//
// Ops decode two bytes at a time: the op kind and the member index
// into a 16-name alphabet.
func FuzzRing(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 1, 3, 1, 1, 2}, []byte("seed-key"))
	f.Add([]byte{0, 0, 0, 1, 0, 2, 2, 0, 0, 3, 1, 1}, []byte{0xff, 0x00})
	f.Add([]byte{2, 5}, []byte("k"))
	f.Fuzz(func(t *testing.T, ops []byte, key []byte) {
		r := NewRing(16) // small vnode count keeps the fuzzer fast
		keys := sampleKeys(64)
		keys = append(keys, key)
		for i := 0; i+1 < len(ops); i += 2 {
			name := fmt.Sprintf("n%02d", ops[i+1]%16)
			before := owners(r, keys)
			switch ops[i] % 4 {
			case 0:
				r.Add(name)
			case 1:
				r.Remove(name)
			case 2:
				r.SetAlive(name, false)
			case 3:
				r.SetAlive(name, true)
			}
			after := owners(r, keys)
			gaining := ops[i]%4 == 0 || ops[i]%4 == 3 // add / revive
			for k := range keys {
				if after[k] == before[k] {
					continue
				}
				// Movement bound: a gaining change only pulls keys to
				// the changed member; a losing change only pushes keys
				// off it. ("" = key had/has no alive owner.)
				if gaining && after[k] != name && before[k] != "" {
					t.Fatalf("op %d (%q gain): key %d moved %q -> %q",
						i, name, k, before[k], after[k])
				}
				if !gaining && before[k] != name && before[k] != "" {
					t.Fatalf("op %d (%q loss): key %d moved %q -> %q",
						i, name, k, before[k], after[k])
				}
			}
		}
		// Liveness: every routed key lands on an alive member, and
		// ok=false only when nothing is alive.
		aliveSet := map[string]bool{}
		for _, n := range r.Alive() {
			aliveSet[n] = true
		}
		for _, k := range keys {
			name, ok := r.Owner(k)
			if ok && !aliveSet[name] {
				t.Fatalf("key %q owned by dead member %q", k, name)
			}
			if !ok && len(aliveSet) > 0 {
				t.Fatalf("key %q unrouted with %d alive members", k, len(aliveSet))
			}
		}
	})
}
