package semstats

import "gptattr/internal/cppcheck"

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

// dominatorsInto computes the immediate-dominator array of the
// compacted graph into a reused idom slice, with the
// Cooper-Harvey-Kennedy iterative algorithm. Nodes are already
// numbered in reverse postorder, so after the first sweep every node's
// stored idom is strictly smaller than the node itself (its DFS tree
// parent precedes it), which keeps intersect finite. idom[0] == 0: the
// entry dominates itself.
func dominatorsInto(nodes []cppcheck.CompactNode, idom []int) []int {
	n := len(nodes)
	if cap(idom) < n {
		idom = make([]int, n)
	}
	idom = idom[:n]
	for i := range idom {
		idom[i] = -1
	}
	if n == 0 {
		return idom
	}
	idom[0] = 0
	for changed := true; changed; {
		changed = false
		for b := 1; b < n; b++ {
			newIdom := -1
			for _, p := range nodes[b].Preds {
				if idom[p] < 0 {
					continue
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(idom, p, newIdom)
				}
			}
			if newIdom >= 0 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// loopScratch recycles the natural-loop pass state. compute finds the
// back edges (u -> h where h dominates u) of the compacted graph and
// collects their natural-loop bodies, merging back edges that share a
// header into one loop. Loops are discovered in back-edge order
// instead of sorted-header order; every consumed output (counts, depth
// histogram) is order-independent.
type loopScratch struct {
	headerLoop []int32 // node -> loop index, -1
	headers    []int32
	bodies     [][]bool
	nLoops     int
	backEdges  int
	stack      []int32
}

func (ls *loopScratch) compute(nodes []cppcheck.CompactNode, idom []int) {
	n := len(nodes)
	ls.nLoops, ls.backEdges = 0, 0
	ls.headerLoop = resizeI32(ls.headerLoop, n)
	for i := range ls.headerLoop {
		ls.headerLoop[i] = -1
	}
	for u, nd := range nodes {
		for _, h := range nd.Succs {
			if !dominates(idom, h, u) {
				continue
			}
			ls.backEdges++
			li := ls.headerLoop[h]
			if li < 0 {
				li = int32(ls.nLoops)
				ls.headerLoop[h] = li
				if ls.nLoops < len(ls.bodies) {
					ls.bodies[ls.nLoops] = resizeBool(ls.bodies[ls.nLoops], n)
					ls.headers[ls.nLoops] = int32(h)
				} else {
					ls.bodies = append(ls.bodies, make([]bool, n))
					ls.headers = append(ls.headers, int32(h))
				}
				ls.bodies[li][h] = true
				ls.nLoops++
			}
			body := ls.bodies[li]
			// Walk predecessors back from the latch; the header caps
			// the walk because it is already in the body.
			ls.stack = append(ls.stack[:0], int32(u))
			for len(ls.stack) > 0 {
				x := ls.stack[len(ls.stack)-1]
				ls.stack = ls.stack[:len(ls.stack)-1]
				if body[x] {
					continue
				}
				body[x] = true
				for _, p := range nodes[x].Preds {
					ls.stack = append(ls.stack, int32(p))
				}
			}
		}
	}
}

// fill writes the loop-nesting numbers into st: a loop's depth
// (1 = outermost) is the number of loop bodies containing its header.
func (ls *loopScratch) fill(st *FuncStats) {
	st.BackEdges = ls.backEdges
	st.Loops = ls.nLoops
	for i := 0; i < ls.nLoops; i++ {
		d := 0
		for j := 0; j < ls.nLoops; j++ {
			if ls.bodies[j][ls.headers[i]] {
				d++
			}
		}
		if d > st.MaxLoopDepth {
			st.MaxLoopDepth = d
		}
		switch {
		case d <= 1:
			st.LoopsAtDepth[0]++
		case d == 2:
			st.LoopsAtDepth[1]++
		default:
			st.LoopsAtDepth[2]++
		}
	}
}
