package cppcheck

import (
	"testing"

	"gptattr/internal/cppast"
)

// TestResolveStepsLinear counts the steps of compaction's empty-block
// walks, not time: each block's landing is recorded the first time a
// walk passes it, so the walks of one Compact take at most one step per
// block. Without the record, every branch of a nested if re-walked the
// chain of empty join blocks below it, quadratic in the depth.
func TestResolveStepsLinear(t *testing.T) {
	var sc Scratch
	for _, n := range []int{256, 1024} {
		shapes := shapeSeeds(n)
		for _, c := range []struct {
			name  string
			shape int
		}{{"nested if", 0}, {"else if", 2}} {
			g := sc.Build(cppast.MustParse(shapes[c.shape]).Function("main"))
			sc.Compact(g)
			if steps, limit := sc.cp.steps, 2*len(g.Blocks); steps > limit {
				t.Errorf("%s at %d: %d resolve steps over %d blocks, want <= %d", c.name, n, steps, len(g.Blocks), limit)
			}
		}
	}
}

// TestResolveMatchesWalk pins the recorded landings to the plain walk
// they replace, from every start block in two visiting orders, so the
// start-dependent answer on empty-block cycles is kept: a tail block
// lands where its walk enters the cycle, a cycle block on itself.
func TestResolveMatchesWalk(t *testing.T) {
	walk := func(g *CFG, b *Block) *Block {
		seen := make(map[*Block]bool)
		for len(b.Stmts) == 0 && b.Cond == nil && len(b.Succs) == 1 && b != g.Exit && !seen[b] {
			seen[b] = true
			b = b.Succs[0]
		}
		return b
	}
	srcs := append(cfgSeeds(),
		"int main() { for (;;) { } }",
		"int main() { for (;;) { for (;;) { } } }",
		"int main() { int x = 0; for (;;) { if (x) continue; } }",
	)
	var sc Scratch
	for _, src := range srcs {
		tu, err := cppast.Parse(src)
		if err != nil || tu == nil {
			continue
		}
		for _, fn := range tu.Functions() {
			g := sc.Build(fn)
			if g == nil {
				continue
			}
			for _, reverse := range []bool{false, true} {
				sc.cp.land = resize(sc.cp.land, len(g.Blocks))
				for i := range g.Blocks {
					b := g.Blocks[i]
					if reverse {
						b = g.Blocks[len(g.Blocks)-1-i]
					}
					if got, want := sc.cp.resolve(g, b), walk(g, b); got != want {
						t.Fatalf("%s: block %d (%s) lands on %d, the walk on %d", fn.Name, b.ID, b.Label, got.ID, want.ID)
					}
				}
			}
		}
	}
}
