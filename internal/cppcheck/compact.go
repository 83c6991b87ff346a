package cppcheck

import (
	"gptattr/internal/cppast"
)

// CompactNode is one node of a compacted CFG: a maximal straight-line
// run of the function's reachable blocks. Succs and Preds index the
// slice Compactor.Compact returns; Cond, IsSwitch and CaseVals describe
// the branch that ends the run, as on Block.
type CompactNode struct {
	Stmts    []cppast.Node
	Cond     cppast.Node
	IsSwitch bool
	CaseVals []cppast.Node
	Succs    []int
	Preds    []int
}

// Compactor reduces CFGs to their normal form: unreachable blocks
// dropped, trivial empty blocks dissolved, straight-line chains merged,
// nodes numbered in reverse postorder with the entry first. The for and
// while spellings of one loop, and any layout of one function, compact
// to the same graph. It is the one normal form the code base uses: the
// fingerprint serializes it and semstats measures its shape, so the
// two agree by construction.
//
// A Compactor recycles all of its storage, so compacting a stream of
// functions allocates nothing once warm. The zero value is ready to
// use. One Compactor backs one live graph at a time.
type Compactor struct {
	reach   []bool
	blockCn []int32 // block ID -> working-node index, -1 unreachable
	rmark   []int32 // per-block resolve epochs
	repoch  int32

	cns  []workNode // high-water slab
	used int

	entryCn, exitCn int32

	predCnt []int32
	vmark   []int32 // per-working-node DFS epochs
	vepoch  int32

	stmtBuf []cppast.Node // merged-statement arena (grow-by-abandonment)
	order   []int32
	cnIdx   []int32
	stack   []int32

	nodes []CompactNode // output, high-water
}

// workNode is a node during compaction, with successor indices into
// the working slab rather than pointers so the slab can be recycled
// without aliasing hazards.
type workNode struct {
	stmts    []cppast.Node
	cond     cppast.Node
	isSwitch bool
	caseVals []cppast.Node
	succs    []int32
}

func (cp *Compactor) takeWorkNode() int32 {
	if cp.used < len(cp.cns) {
		w := &cp.cns[cp.used]
		*w = workNode{succs: w.succs[:0]}
	} else {
		cp.cns = append(cp.cns, workNode{})
	}
	cp.used++
	return int32(cp.used - 1)
}

// resolve follows trivial empty single-successor blocks to their
// landing block, stopping on a cycle. On an empty-block cycle
// (for(;;);) the answer depends on where the walk starts; that is part
// of the normal form.
func (cp *Compactor) resolve(g *CFG, b *Block) *Block {
	cp.repoch++
	e := cp.repoch
	for len(b.Stmts) == 0 && b.Cond == nil && len(b.Succs) == 1 && b != g.Exit && cp.rmark[b.ID] != e {
		cp.rmark[b.ID] = e
		b = b.Succs[0]
	}
	return b
}

// Compact reduces g to its compacted graph, entry at index 0 and the
// rest in reverse postorder; nil for a nil CFG. The result is owned by
// the Compactor and valid until its next Compact or Release call.
func (cp *Compactor) Compact(g *CFG) []CompactNode {
	if g == nil {
		return nil
	}
	nb := len(g.Blocks)

	// Reachability from entry.
	if cap(cp.reach) < nb {
		cp.reach = make([]bool, nb)
	} else {
		cp.reach = cp.reach[:nb]
		clear(cp.reach)
	}
	cp.stack = append(cp.stack[:0], int32(g.Entry.ID))
	for len(cp.stack) > 0 {
		id := cp.stack[len(cp.stack)-1]
		cp.stack = cp.stack[:len(cp.stack)-1]
		if cp.reach[id] {
			continue
		}
		cp.reach[id] = true
		for _, s := range g.Blocks[id].Succs {
			if !cp.reach[s.ID] {
				cp.stack = append(cp.stack, int32(s.ID))
			}
		}
	}

	// Working nodes for reachable blocks; edges via resolve.
	cp.blockCn = resizeI32(cp.blockCn, nb)
	cp.rmark = resizeI32(cp.rmark, nb)
	cp.repoch = 0
	cp.used = 0
	for _, b := range g.Blocks {
		cp.blockCn[b.ID] = -1
		if cp.reach[b.ID] {
			wi := cp.takeWorkNode()
			w := &cp.cns[wi]
			w.stmts, w.cond, w.isSwitch, w.caseVals = b.Stmts, b.Cond, b.IsSwitch, b.CaseVals
			cp.blockCn[b.ID] = wi
		}
	}
	for _, b := range g.Blocks {
		wi := cp.blockCn[b.ID]
		if wi < 0 {
			continue
		}
		for _, s := range b.Succs {
			t := cp.resolve(g, s)
			cp.cns[wi].succs = append(cp.cns[wi].succs, cp.blockCn[t.ID])
		}
	}
	cp.entryCn = cp.blockCn[cp.resolve(g, g.Entry).ID]
	cp.exitCn = -1 // unreachable exit (infinite loop)
	if cp.reach[g.Exit.ID] {
		cp.exitCn = cp.blockCn[g.Exit.ID]
	}

	// Merge straight-line chains in one preorder sweep.
	cp.predCnt = resizeI32(cp.predCnt, cp.used)
	cp.vmark = resizeI32(cp.vmark, cp.used)
	cp.vepoch++
	cp.predWalk(cp.entryCn)
	cp.stmtBuf = cp.stmtBuf[:0]
	cp.vepoch++
	cp.mergeVisit(cp.entryCn)

	// Reverse-postorder numbering from the merged entry.
	cp.order = cp.order[:0]
	cp.vepoch++
	cp.poVisit(cp.entryCn)
	for i, j := 0, len(cp.order)-1; i < j; i, j = i+1, j-1 {
		cp.order[i], cp.order[j] = cp.order[j], cp.order[i]
	}

	// Materialize the output graph.
	cp.cnIdx = resizeI32(cp.cnIdx, cp.used)
	for i, wi := range cp.order {
		cp.cnIdx[wi] = int32(i)
	}
	n := len(cp.order)
	if cap(cp.nodes) < n {
		cp.nodes = append(cp.nodes[:cap(cp.nodes)], make([]CompactNode, n-cap(cp.nodes))...)
	}
	cp.nodes = cp.nodes[:n]
	for i, wi := range cp.order {
		w := &cp.cns[wi]
		nd := &cp.nodes[i]
		*nd = CompactNode{
			Stmts: w.stmts, Cond: w.cond, IsSwitch: w.isSwitch, CaseVals: w.caseVals,
			Succs: nd.Succs[:0], Preds: nd.Preds[:0],
		}
	}
	for i, wi := range cp.order {
		for _, si := range cp.cns[wi].succs {
			j := int(cp.cnIdx[si])
			cp.nodes[i].Succs = append(cp.nodes[i].Succs, j)
			cp.nodes[j].Preds = append(cp.nodes[j].Preds, i)
		}
	}
	return cp.nodes
}

// predWalk counts every node's predecessor edges over the part of the
// graph reachable from wi.
func (cp *Compactor) predWalk(wi int32) {
	if cp.vmark[wi] == cp.vepoch {
		return
	}
	cp.vmark[wi] = cp.vepoch
	for _, s := range cp.cns[wi].succs {
		cp.predCnt[s]++
		cp.predWalk(s)
	}
}

// mergeVisit walks the graph in preorder. At each node it absorbs the
// whole straight-line chain that follows: while the node has no
// condition and one successor, and that successor has no other
// predecessor (and is neither the node itself, the entry nor the
// exit), the successor's statements, branch and edges move into the
// node. A merge changes no surviving node's predecessor count and no
// reachability, and a chain's head is always visited before its
// members, so one sweep leaves no mergeable pair.
func (cp *Compactor) mergeVisit(wi int32) {
	if cp.vmark[wi] == cp.vepoch {
		return
	}
	cp.vmark[wi] = cp.vepoch
	w := &cp.cns[wi]
	start := -1
	for w.cond == nil && len(w.succs) == 1 {
		si := w.succs[0]
		if si == wi || si == cp.exitCn || si == cp.entryCn || cp.predCnt[si] != 1 {
			break
		}
		s := &cp.cns[si]
		if start < 0 {
			start = len(cp.stmtBuf)
			cp.stmtBuf = append(cp.stmtBuf, w.stmts...)
		}
		cp.stmtBuf = append(cp.stmtBuf, s.stmts...)
		w.cond, w.isSwitch, w.caseVals = s.cond, s.isSwitch, s.caseVals
		// Copy, never alias: s's slice storage is recycled.
		w.succs = append(w.succs[:0], s.succs...)
	}
	if start >= 0 {
		// Full slice expression: later arena appends must not be able
		// to write through this node's view.
		w.stmts = cp.stmtBuf[start:len(cp.stmtBuf):len(cp.stmtBuf)]
	}
	for _, s := range w.succs {
		cp.mergeVisit(s)
	}
}

func (cp *Compactor) poVisit(wi int32) {
	if cp.vmark[wi] == cp.vepoch {
		return
	}
	cp.vmark[wi] = cp.vepoch
	for _, s := range cp.cns[wi].succs {
		cp.poVisit(s)
	}
	cp.order = append(cp.order, wi)
}

// Release drops the AST references the recycled storage holds, so a
// pooled Compactor does not pin a request's tree between uses.
func (cp *Compactor) Release() {
	for i := range cp.cns {
		w := &cp.cns[i]
		*w = workNode{succs: w.succs[:0]}
	}
	all := cp.nodes[:cap(cp.nodes)]
	for i := range all {
		all[i] = CompactNode{Succs: all[i].Succs[:0], Preds: all[i].Preds[:0]}
	}
	cp.nodes = cp.nodes[:0]
	clear(cp.stmtBuf[:cap(cp.stmtBuf)])
	cp.stmtBuf = cp.stmtBuf[:0]
}
