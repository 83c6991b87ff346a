package semstats

import (
	"gptattr/internal/cppcheck"
	"gptattr/internal/reuse"
)

// resizeI32 returns a zeroed []int32 of length n, reusing capacity.
func resizeI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func resizeBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// edgeCount returns the number of edges of the compacted graph
// (parallel edges counted once per pair, matching the usual
// cyclomatic-complexity convention), deduplicating through epoch marks.
func (s *Scratch) edgeCount(nodes []cppcheck.CompactNode) int {
	s.emark = resizeI32(s.emark, len(nodes))
	n := 0
	for _, nd := range nodes {
		s.eepoch++
		for _, t := range nd.Succs {
			if s.emark[t] != s.eepoch {
				s.emark[t] = s.eepoch
				n++
			}
		}
	}
	return n
}

// loopScratch recycles the loop-nesting pass state. Every CFG the
// builder emits is reducible (there is no goto, and switch cases are
// flat), so in the compacted graph's reverse-postorder numbering an
// edge u -> h is a back edge exactly when h <= u, and then h dominates
// u and heads a natural loop; back edges sharing a header form one
// loop. Nesting comes from a union-find forest: headers are taken from
// the highest index down, and each collapses the body it reaches
// backwards from its latches into itself. An inner loop's header is
// dominated by every enclosing header, so it has the larger index: it
// is already one node when its innermost enclosing loop walks, and
// that loop becomes its parent. Storage is O(nodes + edges).
type loopScratch struct {
	rep    []int32 // union-find parent: a node's root is its outermost collapsed header so far
	parent []int32 // header -> innermost enclosing header, -1 outermost
	depth  []int32 // header -> nesting depth (1 = outermost), 0 off headers
	stack  []int32
}

// release drops the slabs that outgrew reuse.MaxSlots. They hold only
// numbers, rewritten before every read.
func (ls *loopScratch) release() {
	ls.rep = reuse.Trim(ls.rep)
	ls.parent = reuse.Trim(ls.parent)
	ls.depth = reuse.Trim(ls.depth)
	ls.stack = reuse.Trim(ls.stack)
}

func (ls *loopScratch) find(x int32) int32 {
	root := x
	for ls.rep[root] != root {
		root = ls.rep[root]
	}
	for ls.rep[x] != root {
		ls.rep[x], x = root, ls.rep[x]
	}
	return root
}

// fill writes the loop-nesting numbers of the compacted graph into st:
// back edges, loops, and each loop's depth, the number of loops whose
// body holds its header.
func (ls *loopScratch) fill(nodes []cppcheck.CompactNode, st *FuncStats) {
	n := len(nodes)
	ls.rep = resizeI32(ls.rep, n)
	ls.parent = resizeI32(ls.parent, n)
	ls.depth = resizeI32(ls.depth, n)
	for i := range ls.rep {
		ls.rep[i] = int32(i)
		ls.parent[i] = -1
	}
	for h := n - 1; h >= 0; h-- {
		ls.stack = ls.stack[:0]
		for _, u := range nodes[h].Preds {
			if u >= h {
				st.BackEdges++
				ls.stack = append(ls.stack, int32(u))
			}
		}
		if len(ls.stack) == 0 {
			continue
		}
		st.Loops++
		ls.depth[h] = 1
		for len(ls.stack) > 0 {
			y := ls.find(ls.stack[len(ls.stack)-1])
			ls.stack = ls.stack[:len(ls.stack)-1]
			if y == int32(h) {
				continue
			}
			// y is a body node or an inner loop collapsed into its
			// header; only a header has predecessors outside its loop.
			ls.rep[y] = int32(h)
			ls.parent[y] = int32(h)
			for _, p := range nodes[y].Preds {
				ls.stack = append(ls.stack, int32(p))
			}
		}
	}
	// A parent header has the smaller index, so its depth is final.
	for h := range ls.depth {
		if ls.depth[h] == 0 {
			continue
		}
		if p := ls.parent[h]; p >= 0 {
			ls.depth[h] = ls.depth[p] + 1
		}
		d := int(ls.depth[h])
		st.MaxLoopDepth = max(st.MaxLoopDepth, d)
		st.LoopsAtDepth[min(d, 3)-1]++
	}
}
