package semstats

import (
	"context"
	"testing"

	"gptattr/internal/cppast"
)

// FuzzDominators drives arbitrary source through the parser, CFG
// builder, compaction, dominator, and loop passes, asserting the
// structural invariants the feature layer relies on:
//
//   - the pipeline never panics, whatever the parser produced;
//   - the idom array is acyclic: every non-entry node's idom has a
//     strictly smaller RPO index, so idom chains terminate at the entry;
//   - every node of the compact graph is dominated by the entry;
//   - every natural loop contains its header, the header dominates the
//     whole body, and nesting depths are at least 1;
//   - the graph is reducible in the sense the shipped loop pass relies
//     on: an edge u -> h has h <= u exactly when h dominates u;
//   - the shipped Scratch agrees with the reference pipeline, loop
//     numbers (BackEdges, Loops, MaxLoopDepth, LoopsAtDepth) included.
//
// Seed inputs live in testdata/fuzz/FuzzDominators (the committed
// regression corpus), beside the f.Add inputs and 16-deep shapes.
func FuzzDominators(f *testing.F) {
	f.Add("int main() { return 0; }")
	f.Add("int main() { for (int i = 0; i < 10; i++) { if (i % 2) continue; } return 0; }")
	f.Add("int main() { while (1) { break; } do { } while (0); return 0; }")
	f.Add(`int f(int n) { if (n <= 1) return 1; return n * f(n - 1); }
int main() { switch (f(3)) { case 1: return 1; default: return 0; } }`)
	f.Add("int main() { for (;;) { } }")
	f.Add("int main() { int x; goto done; }")
	for _, s := range deepShapes(16) {
		f.Add(s)
	}
	sc := NewScratch()
	f.Fuzz(func(t *testing.T, src string) {
		tu, err := cppast.Parse(src)
		if err != nil || tu == nil {
			return
		}
		got, err := sc.AnalyzeContext(context.Background(), tu)
		if err != nil {
			t.Fatal(err)
		}
		diffStats(t, "scratch", refAnalyze(tu), got)
		for _, fd := range tu.Functions() {
			if fd.Body == nil {
				continue
			}
			c := NewFuncContext(fd, nil, nil)
			g := c.compactGraph()
			if g == nil || len(g.nodes) == 0 {
				continue
			}
			idom := c.dominatorTree()
			if idom[0] != 0 {
				t.Fatalf("idom[entry] = %d", idom[0])
			}
			for i := 1; i < len(idom); i++ {
				if idom[i] < 0 || idom[i] >= i {
					t.Fatalf("idom[%d] = %d: not acyclic (must be in [0,%d))", i, idom[i], i)
				}
				if !dominates(idom, 0, i) {
					t.Fatalf("entry does not dominate node %d", i)
				}
			}
			for u, nd := range g.nodes {
				for _, h := range nd.succs {
					if (h <= u) != dominates(idom, h, u) {
						t.Fatalf("edge %d->%d: h <= u is %v, dominance %v", u, h, h <= u, !(h <= u))
					}
				}
			}
			loops, back := c.loopNest()
			if back < len(loops) {
				t.Fatalf("%d back edges < %d loops", back, len(loops))
			}
			depths, maxDepth := loopDepths(loops)
			for li, loop := range loops {
				if !loop.body[loop.header] {
					t.Fatalf("loop %d: header %d not in body", li, loop.header)
				}
				for n := range loop.body {
					if !dominates(idom, loop.header, n) {
						t.Fatalf("loop %d: header %d does not dominate body node %d", li, loop.header, n)
					}
				}
				if depths[li] < 1 || depths[li] > maxDepth {
					t.Fatalf("loop %d: depth %d out of range (max %d)", li, depths[li], maxDepth)
				}
			}
			// Stats must assemble without panicking on whatever shape this is.
			_ = c.Stats()
		}
	})
}
