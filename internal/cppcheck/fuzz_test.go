package cppcheck

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"gptattr/internal/cppast"
)

// FuzzBuildCFG pins the builder's structural guarantees for any
// source the tolerant parser accepts: it never panics, and every block
// is either reachable from entry or genuinely unreachable code (no
// block is lost — each one the builder allocated is in g.Blocks, and
// each reachable block's edges are symmetric with its Preds lists).
// Every function is built on one Scratch reused across inputs and
// checked against a build on a fresh Scratch (sameCFG), so recycled
// storage never leaks into a graph. It also checks the graph's
// reachability walk and the compacted graph's invariants
// (checkCompact) on the reused Scratch. Analyze and Fingerprint ride
// along so the whole pipeline is panic-free on arbitrary inputs.
func FuzzBuildCFG(f *testing.F) {
	for _, s := range cfgSeeds() {
		f.Add(s)
	}
	var ws Scratch
	f.Fuzz(func(t *testing.T, src string) {
		tu, err := cppast.Parse(src)
		if err != nil || tu == nil {
			return
		}
		for _, fn := range tu.Functions() {
			g := ws.Build(fn)
			if fn.Body == nil {
				if g != nil {
					t.Fatal("prototype must yield nil CFG")
				}
				continue
			}
			if g == nil {
				t.Fatal("body must yield a CFG")
			}
			if g.Entry == nil || g.Exit == nil {
				t.Fatal("CFG must have entry and exit")
			}
			sameCFG(t, g, new(Scratch).Build(fn))
			inGraph := make(map[*Block]bool, len(g.Blocks))
			for _, b := range g.Blocks {
				inGraph[b] = true
			}
			reach := reachable(g)
			for b := range reach {
				if !inGraph[b] {
					t.Fatal("reachable block missing from g.Blocks")
				}
			}
			for _, b := range g.Blocks {
				if g.reach[b.ID] != reach[b] {
					t.Fatalf("block %d: reach mark %v, reachable %v", b.ID, g.reach[b.ID], reach[b])
				}
				for _, s := range b.Succs {
					if !inGraph[s] {
						t.Fatal("edge to a block outside the graph")
					}
					found := false
					for _, p := range s.Preds {
						if p == b {
							found = true
							break
						}
					}
					if !found {
						t.Fatal("succ edge without matching pred edge")
					}
				}
			}
			// The RPO must start at entry and hold exactly the
			// reachable blocks.
			if len(g.rpo) == 0 || g.rpo[0] != g.Entry {
				t.Fatal("RPO must start at entry")
			}
			if len(g.rpo) != len(reach) {
				t.Fatalf("RPO has %d blocks, %d are reachable", len(g.rpo), len(reach))
			}
			for _, b := range g.rpo {
				if !reach[b] {
					t.Fatal("RPO contains unreachable block")
				}
			}
			checkCompact(t, g, reach, ws.Compact(g))
		}
		// The full pipeline must be panic-free too.
		_ = Analyze(tu)
		_, _ = Fingerprint(tu)
	})
}

// sameCFG fails unless got and want are the same graph of the same
// function: block IDs, labels, statements, branches, switch labels,
// edges in order, the Unsupported flag and the reachability walk. A
// materialized for-post statement is a wrapper each Scratch owns, so
// it compares by the expression it wraps.
func sameCFG(t *testing.T, got, want *CFG) {
	t.Helper()
	ids := func(bs []*Block) []int {
		out := make([]int, len(bs))
		for i, b := range bs {
			out[i] = b.ID
		}
		return out
	}
	sameStmt := func(a, b cppast.Node) bool {
		ea, ok1 := a.(*cppast.ExprStmt)
		eb, ok2 := b.(*cppast.ExprStmt)
		return a == b || ok1 && ok2 && ea.X == eb.X
	}
	if got.Fn != want.Fn || got.Unsupported != want.Unsupported || len(got.Blocks) != len(want.Blocks) ||
		got.Entry.ID != want.Entry.ID || got.Exit.ID != want.Exit.ID ||
		!slices.Equal(ids(got.rpo), ids(want.rpo)) || !slices.Equal(got.reach, want.reach) {
		t.Fatalf("%s: graph differs from a fresh build", want.Fn.Name)
	}
	for i, w := range want.Blocks {
		b := got.Blocks[i]
		if b.ID != w.ID || b.Label != w.Label || b.Cond != w.Cond || b.IsSwitch != w.IsSwitch ||
			!slices.Equal(b.CaseVals, w.CaseVals) || !slices.EqualFunc(b.Stmts, w.Stmts, sameStmt) ||
			!slices.Equal(ids(b.Succs), ids(w.Succs)) || !slices.Equal(ids(b.Preds), ids(w.Preds)) {
			t.Fatalf("%s: block %d differs from a fresh build", want.Fn.Name, i)
		}
	}
}

// reachable returns the set of blocks reachable from g.Entry.
func reachable(g *CFG) map[*Block]bool {
	seen := make(map[*Block]bool, len(g.Blocks))
	stack := []*Block{g.Entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b] {
			continue
		}
		seen[b] = true
		stack = append(stack, b.Succs...)
	}
	return seen
}

// checkCompact asserts the invariants of g's compacted graph:
//
//   - the entry is node 0 and the nodes are in reverse postorder;
//   - Preds and Succs mirror each other, edge for edge;
//   - no mergeable pair is left: a condition-less node with one
//     successor never has a successor other than itself, the entry or
//     the exit whose only predecessor it is;
//   - every reachable block's statements appear exactly once, in
//     order, as one run inside one node, and nodes hold nothing else.
func checkCompact(t *testing.T, g *CFG, reach map[*Block]bool, nodes []CompactNode) {
	t.Helper()
	n := len(nodes)
	if n == 0 {
		t.Fatal("compacted graph is empty")
	}

	// Reverse postorder from node 0 must number the nodes 0..n-1.
	var post []int
	seen := make([]bool, n)
	var visit func(i int)
	visit = func(i int) {
		seen[i] = true
		for _, s := range nodes[i].Succs {
			if s < 0 || s >= n {
				t.Fatalf("node %d: successor %d out of range", i, s)
			}
			if !seen[s] {
				visit(s)
			}
		}
		post = append(post, i)
	}
	visit(0)
	if len(post) != n {
		t.Fatalf("%d of %d nodes reachable from node 0", len(post), n)
	}
	for i := range post {
		if post[n-1-i] != i {
			t.Fatalf("node order is not reverse postorder: position %d holds node %d", i, post[n-1-i])
		}
	}

	// Preds mirror Succs as multisets of edges.
	edges := make(map[[2]int]int)
	for i, nd := range nodes {
		for _, s := range nd.Succs {
			edges[[2]int{i, s}]++
		}
	}
	for i, nd := range nodes {
		for _, p := range nd.Preds {
			edges[[2]int{p, i}]--
		}
	}
	for e, c := range edges {
		if c != 0 {
			t.Fatalf("edge %d->%d: succ and pred counts differ by %d", e[0], e[1], c)
		}
	}

	// No mergeable pair. The exit is the one node that may be empty,
	// branch-free and successor-free and still not be absorbed.
	for i, nd := range nodes {
		if nd.Cond != nil || len(nd.Succs) != 1 {
			continue
		}
		s := nd.Succs[0]
		sn := &nodes[s]
		exitLike := len(sn.Stmts) == 0 && sn.Cond == nil && len(sn.Succs) == 0
		if s != i && s != 0 && !exitLike && len(sn.Preds) == 1 {
			t.Fatalf("node %d could still absorb node %d", i, s)
		}
	}

	// Statements: each reachable block's run, once, in order.
	type at struct{ node, pos int }
	where := make(map[cppast.Node]at)
	total := 0
	for i, nd := range nodes {
		for p, st := range nd.Stmts {
			if _, dup := where[st]; dup {
				t.Fatalf("statement at line %d appears twice", st.Line())
			}
			where[st] = at{i, p}
			total++
		}
	}
	want := 0
	for _, b := range g.Blocks {
		if !reach[b] {
			continue
		}
		want += len(b.Stmts)
		for j, st := range b.Stmts {
			w, ok := where[st]
			if !ok {
				t.Fatalf("block %d: statement %d missing from the compacted graph", b.ID, j)
			}
			if j > 0 && w != (at{where[b.Stmts[j-1]].node, where[b.Stmts[j-1]].pos + 1}) {
				t.Fatalf("block %d: statement %d is not right after statement %d", b.ID, j, j-1)
			}
		}
	}
	if total != want {
		t.Fatalf("compacted graph holds %d statements, reachable blocks %d", total, want)
	}

	// A node's branch is the branch of the block its run ends with,
	// switch labels included.
	condBlock := make(map[cppast.Node]*Block)
	for b := range reach {
		if b.Cond != nil {
			condBlock[b.Cond] = b
		}
	}
	for i, nd := range nodes {
		if nd.Cond == nil {
			continue
		}
		b := condBlock[nd.Cond]
		if b == nil || nd.IsSwitch != b.IsSwitch || !slices.Equal(nd.CaseVals, b.CaseVals) {
			t.Fatalf("node %d: branch differs from its block's", i)
		}
	}

	// The entry's landing block starts node 0.
	land := g.Entry
	for hops := 0; len(land.Stmts) == 0 && land.Cond == nil && len(land.Succs) == 1 && land != g.Exit && hops < len(g.Blocks); hops++ {
		land = land.Succs[0]
	}
	switch {
	case len(land.Stmts) > 0:
		if where[land.Stmts[0]] != (at{0, 0}) {
			t.Fatal("entry block's statements do not start node 0")
		}
	case land.Cond != nil:
		if nodes[0].Cond != land.Cond {
			t.Fatal("entry block's branch is not node 0's")
		}
	}
}

// handSeeds are the hand-written FuzzBuildCFG seeds: one per CFG
// construct the builder models, plus stray jumps and a struct.
var handSeeds = []string{
	"int main() { return 0; }",
	"int main() { int x; if (x) { return 1; } return 0; }",
	"int main() { for (int i = 0; i < 3; i++) { if (i == 1) continue; if (i == 2) break; } return 0; }",
	"int main() { while (1) { break; } do { } while (0); return 0; }",
	"int main() { switch (1) { case 1: break; default: return 2; } return 0; }",
	"int main() { return 0; int dead = 1; }",
	"int f(int &x) { x = 1; return x; } int main() { int y; f(y); return y; }",
	"break; continue;",
	"int main() { for (;;) {} }",
	"#include <iostream>\nusing namespace std;\nint main() { int n; cin >> n; cout << n << endl; }",
	"struct S { int a; }; int main() { return 0; }",
	"int main() { { { int x = 1; } } return 0; }",
	"int main() { if (1) if (2) return 3; else return 4; }",
	// The second dispatch block merges into the first switch's only
	// case, so the merged node must carry the switch labels.
	"int main() { int a = 1, b = 0; switch (a) { default: b = 1; } switch (b) { case 1: a = 2; break; default: a = 3; } return a; }",
}

// shapeDepth is the depth or length of the pathological seed shapes:
// deep enough to exercise chain merging and long dominator chains,
// small enough for tier-1.
const shapeDepth = 64

// shapeSeeds renders the seven pathological shapes — nested if, nested
// while, an else-if chain, a switch with one case per value, flat
// straight-line statements, an && chain and nested parentheses — at
// depth or length n.
func shapeSeeds(n int) []string {
	rep := func(s string) string { return strings.Repeat(s, n) }
	var elseIf, cases, and strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			elseIf.WriteString(" else ")
			and.WriteString(" && ")
		}
		fmt.Fprintf(&elseIf, "if (x == %d) y = %d;", i, i)
		fmt.Fprintf(&cases, "case %d: y = %d; break; ", i, i)
		fmt.Fprintf(&and, "x > %d", i)
	}
	return []string{
		"int main() { int x = 1, y = 0; " + rep("if (x) { ") + "y = y + 1; " + rep("} ") + "return y; }",
		"int main() { int x = 1, y = 0; " + rep("while (x) { ") + "x = 0; " + rep("} ") + "return y; }",
		"int main() { int x = 1, y = 0; " + elseIf.String() + " else y = -1; return y; }",
		"int main() { int x = 1, y = 0; switch (x) { " + cases.String() + "default: y = -1; } return y; }",
		"int main() { int y = 0, i = 1; " + rep("y = y + i; ") + "return y; }",
		"int main() { int x = 1, y = 0; if (" + and.String() + ") y = 1; return y; }",
		"int main() { int x = 1; int y = " + rep("(") + "x" + rep(")") + "; return y; }",
	}
}

// cfgSeeds is the full FuzzBuildCFG seed corpus.
func cfgSeeds() []string {
	return append(append([]string(nil), handSeeds...), shapeSeeds(shapeDepth)...)
}
