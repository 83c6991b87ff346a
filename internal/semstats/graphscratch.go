package semstats

import (
	"gptattr/internal/cppast"
	"gptattr/internal/cppcheck"
)

// scnode is the working node used during compaction, with successor
// indices instead of pointers so the slab can be recycled without
// aliasing hazards.
type scnode struct {
	stmts []cppast.Node
	cond  cppast.Node
	succs []int32
}

// graphScratch recycles every piece of storage behind CFG compaction:
// the working-node slab, reachability and DFS marks, the merge
// statement arena, and the output graph itself. One scratch backs one
// live graph at a time — compactInto invalidates the previous result.
//
// The compaction it performs is step-for-step the reference compact()
// in the package tests (same resolve short-circuit, same
// one-merge-per-sweep order, same RPO numbering), so the resulting
// graph is structurally identical; TestScratchMatchesReference pins
// that.
type graphScratch struct {
	reach   []bool
	blockCn []int32 // block ID -> working-node index, -1 unreachable
	rmark   []int32 // per-block resolve epochs
	repoch  int32

	cns  []scnode // high-water slab
	used int

	entryCn, exitCn int32

	predCnt []int32
	vmark   []int32 // per-working-node DFS epochs
	vepoch  int32

	stmtBuf []cppast.Node // merge-concat arena (grow-by-abandonment)
	order   []int32
	cnIdx   []int32
	stack   []int32

	nodePool []*node // output nodes, high-water
	nused    int
	g        graph

	emark  []int32 // edge-dedup epochs
	eepoch int32
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		ns := make([]int32, n)
		copy(ns, s)
		return ns
	}
	return s[:n]
}

func resizeI32z(s []int32, n int) []int32 {
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

func (gs *graphScratch) takeCnode() int32 {
	if gs.used < len(gs.cns) {
		c := &gs.cns[gs.used]
		c.stmts, c.cond = nil, nil
		c.succs = c.succs[:0]
	} else {
		gs.cns = append(gs.cns, scnode{})
	}
	gs.used++
	return int32(gs.used - 1)
}

func (gs *graphScratch) takeNode() *node {
	if gs.nused < len(gs.nodePool) {
		nd := gs.nodePool[gs.nused]
		nd.stmts, nd.cond = nil, nil
		nd.succs, nd.preds = nd.succs[:0], nd.preds[:0]
	} else {
		gs.nodePool = append(gs.nodePool, &node{})
	}
	gs.nused++
	return gs.nodePool[gs.nused-1]
}

// resolve follows trivial empty single-successor blocks to their
// landing block, stopping on a cycle.
func (gs *graphScratch) resolve(cfg *cppcheck.CFG, b *cppcheck.Block) *cppcheck.Block {
	gs.repoch++
	e := gs.repoch
	for len(b.Stmts) == 0 && b.Cond == nil && len(b.Succs) == 1 && b != cfg.Exit && gs.rmark[b.ID] != e {
		gs.rmark[b.ID] = e
		b = b.Succs[0]
	}
	return b
}

// compactInto reduces cfg to its canonical compact graph (nil for a
// nil CFG) over recycled storage. The returned graph is owned by the
// scratch and valid until the next compactInto call.
func (gs *graphScratch) compactInto(cfg *cppcheck.CFG) *graph {
	if cfg == nil {
		return nil
	}
	nb := len(cfg.Blocks)

	// Reachability from entry.
	gs.reach = resizeBool(gs.reach, nb)
	gs.stack = append(gs.stack[:0], int32(cfg.Entry.ID))
	for len(gs.stack) > 0 {
		id := gs.stack[len(gs.stack)-1]
		gs.stack = gs.stack[:len(gs.stack)-1]
		if gs.reach[id] {
			continue
		}
		gs.reach[id] = true
		for _, s := range cfg.Blocks[id].Succs {
			if !gs.reach[s.ID] {
				gs.stack = append(gs.stack, int32(s.ID))
			}
		}
	}

	// Working nodes for reachable blocks; edges via resolve.
	gs.blockCn = growI32(gs.blockCn, nb)
	gs.rmark = resizeI32z(gs.rmark, nb)
	gs.repoch = 0
	gs.used = 0
	for _, b := range cfg.Blocks {
		gs.blockCn[b.ID] = -1
		if gs.reach[b.ID] {
			ci := gs.takeCnode()
			c := &gs.cns[ci]
			c.stmts, c.cond = b.Stmts, b.Cond
			gs.blockCn[b.ID] = ci
		}
	}
	for _, b := range cfg.Blocks {
		ci := gs.blockCn[b.ID]
		if ci < 0 {
			continue
		}
		for _, s := range b.Succs {
			t := gs.resolve(cfg, s)
			gs.cns[ci].succs = append(gs.cns[ci].succs, gs.blockCn[t.ID])
		}
	}
	gs.entryCn = gs.blockCn[gs.resolve(cfg, cfg.Entry).ID]
	gs.exitCn = -1 // unreachable exit (infinite loop)
	if gs.reach[cfg.Exit.ID] {
		gs.exitCn = gs.blockCn[cfg.Exit.ID]
	}

	// Merge straight-line chains: a condition-less node whose single
	// successor has a single predecessor absorbs it. One merge per
	// sweep, restarting, keeps the traversal state simple.
	gs.vmark = growI32(gs.vmark, gs.used)
	gs.stmtBuf = gs.stmtBuf[:0]
	for {
		gs.predCnt = resizeI32z(gs.predCnt, gs.used)
		gs.vepoch++
		gs.predWalk(gs.entryCn)
		gs.vepoch++
		if !gs.mergeVisit(gs.entryCn) {
			break
		}
	}

	// Reverse-postorder numbering from the merged entry.
	gs.order = gs.order[:0]
	gs.vepoch++
	gs.poVisit(gs.entryCn)
	for i, j := 0, len(gs.order)-1; i < j; i, j = i+1, j-1 {
		gs.order[i], gs.order[j] = gs.order[j], gs.order[i]
	}

	// Materialize the output graph.
	gs.cnIdx = growI32(gs.cnIdx, gs.used)
	for i, ci := range gs.order {
		gs.cnIdx[ci] = int32(i)
	}
	gs.g.nodes = gs.g.nodes[:0]
	gs.nused = 0
	for _, ci := range gs.order {
		c := &gs.cns[ci]
		nd := gs.takeNode()
		nd.stmts, nd.cond = c.stmts, c.cond
		gs.g.nodes = append(gs.g.nodes, nd)
	}
	for i, ci := range gs.order {
		for _, si := range gs.cns[ci].succs {
			j := gs.cnIdx[si]
			gs.g.nodes[i].succs = append(gs.g.nodes[i].succs, int(j))
			gs.g.nodes[j].preds = append(gs.g.nodes[j].preds, i)
		}
	}
	return &gs.g
}

func (gs *graphScratch) predWalk(ci int32) {
	if gs.vmark[ci] == gs.vepoch {
		return
	}
	gs.vmark[ci] = gs.vepoch
	for _, s := range gs.cns[ci].succs {
		gs.predCnt[s]++
		gs.predWalk(s)
	}
}

// mergeVisit performs at most one chain merge per call, in DFS
// discovery order from the entry.
func (gs *graphScratch) mergeVisit(ci int32) bool {
	if gs.vmark[ci] == gs.vepoch {
		return false
	}
	gs.vmark[ci] = gs.vepoch
	c := &gs.cns[ci]
	if c.cond == nil && len(c.succs) == 1 {
		si := c.succs[0]
		if si != ci && si != gs.exitCn && si != gs.entryCn && gs.predCnt[si] == 1 {
			s := &gs.cns[si]
			start := len(gs.stmtBuf)
			gs.stmtBuf = append(gs.stmtBuf, c.stmts...)
			gs.stmtBuf = append(gs.stmtBuf, s.stmts...)
			// Full slice expression: later arena appends must not be
			// able to write through this node's view.
			c.stmts = gs.stmtBuf[start:len(gs.stmtBuf):len(gs.stmtBuf)]
			c.cond = s.cond
			// Copy, never alias: s's slice storage is recycled.
			c.succs = append(c.succs[:0], s.succs...)
			return true
		}
	}
	for _, s := range c.succs {
		if gs.mergeVisit(s) {
			return true
		}
	}
	return false
}

func (gs *graphScratch) poVisit(ci int32) {
	if gs.vmark[ci] == gs.vepoch {
		return
	}
	gs.vmark[ci] = gs.vepoch
	for _, s := range gs.cns[ci].succs {
		gs.poVisit(s)
	}
	gs.order = append(gs.order, ci)
}

// edgeCount returns the number of edges of g (parallel edges counted
// once per pair, matching the usual cyclomatic-complexity convention),
// deduplicating through epoch marks.
func (gs *graphScratch) edgeCount(g *graph) int {
	gs.emark = growI32(gs.emark, len(g.nodes))
	n := 0
	for _, nd := range g.nodes {
		gs.eepoch++
		for _, s := range nd.succs {
			if gs.emark[s] != gs.eepoch {
				gs.emark[s] = int32(gs.eepoch)
				n++
			}
		}
	}
	return n
}

// release drops AST references held by the recycled slabs so a pooled
// scratch does not pin a request's tree between uses.
func (gs *graphScratch) release() {
	for i := range gs.cns {
		c := &gs.cns[i]
		c.stmts, c.cond = nil, nil
		c.succs = c.succs[:0]
	}
	for _, nd := range gs.nodePool {
		nd.stmts, nd.cond = nil, nil
		nd.succs, nd.preds = nd.succs[:0], nd.preds[:0]
	}
	clear(gs.stmtBuf[:cap(gs.stmtBuf)])
	gs.stmtBuf = gs.stmtBuf[:0]
	gs.g.nodes = gs.g.nodes[:0]
}

// dominatorsInto computes the immediate-dominator array of the
// compacted graph into a reused idom slice, with the
// Cooper-Harvey-Kennedy iterative algorithm. Nodes are already
// numbered in reverse postorder, so after the first sweep every node's
// stored idom is strictly smaller than the node itself (its DFS tree
// parent precedes it), which keeps intersect finite. idom[0] == 0: the
// entry dominates itself.
func dominatorsInto(g *graph, idom []int) []int {
	n := len(g.nodes)
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
			for _, p := range g.nodes[b].preds {
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

func (ls *loopScratch) compute(g *graph, idom []int) {
	n := len(g.nodes)
	ls.nLoops, ls.backEdges = 0, 0
	ls.headerLoop = growI32(ls.headerLoop, n)
	for i := range ls.headerLoop {
		ls.headerLoop[i] = -1
	}
	for u, nd := range g.nodes {
		for _, h := range nd.succs {
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
				for _, p := range g.nodes[x].preds {
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
