package cppcheck

import (
	"gptattr/internal/cppast"
	"gptattr/internal/reuse"
)

// CompactNode is one node of a compacted CFG: a maximal straight-line
// run of the function's reachable blocks. Succs and Preds index the
// slice Scratch.Compact returns; Cond, IsSwitch and CaseVals describe
// the branch that ends the run, as on Block.
type CompactNode struct {
	Stmts    []cppast.Node
	Cond     cppast.Node
	IsSwitch bool
	CaseVals []cppast.Node
	Succs    []int
	Preds    []int
}

// compactor holds the recycled storage of Scratch.Compact, which
// reduces CFGs to their normal form: unreachable blocks dropped,
// trivial empty blocks dissolved, straight-line chains merged, nodes
// numbered in reverse postorder with the entry first. The for and
// while spellings of one loop, and any layout of one function, compact
// to the same graph. It is the one normal form the code base uses: the
// fingerprint serializes it and semstats measures its shape, so the
// two agree by construction.
type compactor struct {
	blockCn []int32 // block ID -> working-node index, -1 unreachable
	land    []int32 // block ID -> resolved block ID + 1; 0 unknown, -1 on the walk
	path    []*Block
	steps   int // resolve walk steps this Compact (pinned by a test)

	cns  []workNode // [:used] this Compact
	used int

	entryCn, exitCn int32

	predCnt []int32
	vmark   []int32 // per-working-node DFS epochs
	vepoch  int32

	stmtBuf []cppast.Node // merged-statement arena (grow-by-abandonment)
	order   []int32
	cnIdx   []int32

	nodes []CompactNode // output

	// Dirty marks: the most working and output nodes one Compact used
	// since the last release. Every slot past its mark is zero.
	dirty, dirtyNodes int
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

func (cp *compactor) takeWorkNode() int32 {
	if cp.used < len(cp.cns) {
		w := &cp.cns[cp.used]
		*w = workNode{succs: w.succs[:0]}
	} else {
		cp.cns = append(cp.cns, workNode{})
	}
	cp.used++
	cp.dirty = max(cp.dirty, cp.used)
	return int32(cp.used - 1)
}

// resolve follows trivial empty single-successor blocks to their
// landing block, stopping on a cycle, and records the landing of every
// block it walks, so each block is walked at most once per Compact. On
// an empty-block cycle (for(;;);) the answer depends on where the walk
// starts, and that is part of the normal form: a block on the tail
// resolves to the block where the walk enters the cycle, and a block
// on the cycle resolves to itself.
func (cp *compactor) resolve(g *CFG, b *Block) *Block {
	path := cp.path[:0]
	var to *Block
	for {
		if l := cp.land[b.ID]; l > 0 {
			to = g.Blocks[l-1]
			break
		} else if l < 0 {
			// b is on this walk: the walk from b on is the cycle.
			i := len(path) - 1
			for path[i] != b {
				i--
			}
			for _, c := range path[i:] {
				cp.land[c.ID] = int32(c.ID) + 1
			}
			path, to = path[:i], b
			break
		}
		if len(b.Stmts) != 0 || b.Cond != nil || len(b.Succs) != 1 || b == g.Exit {
			to = b
			break
		}
		cp.land[b.ID] = -1
		path = append(path, b)
		b = b.Succs[0]
		cp.steps++
	}
	for _, c := range path {
		cp.land[c.ID] = int32(to.ID) + 1
	}
	cp.path = path[:0]
	return to
}

// Compact reduces g to its compacted graph (see compactor), entry at
// index 0 and the rest in reverse postorder; nil for a nil CFG. The
// result is owned by the Scratch and valid until its next Compact or
// Release call.
func (s *Scratch) Compact(g *CFG) []CompactNode {
	if g == nil {
		return nil
	}
	cp := &s.cp
	nb := len(g.Blocks)

	// Working nodes for reachable blocks; edges via resolve.
	cp.blockCn = resize(cp.blockCn, nb)
	cp.land = resize(cp.land, nb)
	cp.steps = 0
	cp.used = 0
	for _, b := range g.Blocks {
		cp.blockCn[b.ID] = -1
		if g.reach[b.ID] {
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
	if g.reach[g.Exit.ID] {
		cp.exitCn = cp.blockCn[g.Exit.ID]
	}

	// Merge straight-line chains in one preorder sweep.
	cp.predCnt = resize(cp.predCnt, cp.used)
	cp.vmark = resize(cp.vmark, cp.used)
	cp.vepoch++
	cp.predWalk(cp.entryCn)
	cp.stmtBuf = reuse.Slab(cp.stmtBuf)
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
	cp.cnIdx = resize(cp.cnIdx, cp.used)
	for i, wi := range cp.order {
		cp.cnIdx[wi] = int32(i)
	}
	n := len(cp.order)
	if cap(cp.nodes) < n {
		cp.nodes = append(cp.nodes[:cap(cp.nodes)], make([]CompactNode, n-cap(cp.nodes))...)
	}
	cp.nodes = cp.nodes[:n]
	cp.dirtyNodes = max(cp.dirtyNodes, n)
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
func (cp *compactor) predWalk(wi int32) {
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
func (cp *compactor) mergeVisit(wi int32) {
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

func (cp *compactor) poVisit(wi int32) {
	if cp.vmark[wi] == cp.vepoch {
		return
	}
	cp.vmark[wi] = cp.vepoch
	for _, s := range cp.cns[wi].succs {
		cp.poVisit(s)
	}
	cp.order = append(cp.order, wi)
}

// release drops the AST references the recycled storage holds,
// visiting only the nodes written since the last release.
func (cp *compactor) release() {
	for i := range cp.cns[:cp.dirty] {
		w := &cp.cns[i]
		*w = workNode{succs: w.succs[:0]}
	}
	nodes := cp.nodes[:cp.dirtyNodes]
	for i := range nodes {
		nodes[i] = CompactNode{Succs: nodes[i].Succs[:0], Preds: nodes[i].Preds[:0]}
	}
	cp.nodes = cp.nodes[:0]
	cp.stmtBuf = reuse.Slab(cp.stmtBuf)
	cp.dirty, cp.dirtyNodes = 0, 0
}
