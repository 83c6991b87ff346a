package ml

import (
	"math/rand"
	"testing"
)

// TestPermIntoMatchesRandPerm pins the bit-identity keystone: permInto
// must consume the rng exactly like rand.Perm and produce the same
// permutation, for every size the trainer can ask for. Any divergence
// silently changes every fitted tree.
func TestPermIntoMatchesRandPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 17, 300} {
		a := rand.New(rand.NewSource(99))
		b := rand.New(rand.NewSource(99))
		want := a.Perm(n)
		got := make([]int, n)
		permInto(b, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: permInto[%d] = %d, rand.Perm gives %d", n, i, got[i], want[i])
			}
		}
		// Both rngs must now be in the same state: the next draws agree.
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("n=%d: rng states diverged after permutation (%d vs %d)", n, x, y)
		}
	}
}
