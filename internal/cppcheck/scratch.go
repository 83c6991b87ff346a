package cppcheck

import (
	"sync"

	"gptattr/internal/cppast"
	"gptattr/internal/reuse"
)

// Scratch is the one reusable workspace behind every per-function
// analysis in this package. It owns the recycled CFG storage (block
// structs with their edge and statement slices, the blocks index, the
// ExprStmt wrappers materialized for for-loop post clauses), the
// graph's reachability walk, the compactor's slabs and the dataflow's
// slabs, so analyzing a stream of functions allocates nothing in
// steady state. Analyze and Fingerprint take one per unit from a pool;
// semstats keeps one in each pooled workspace.
//
// One Scratch backs ONE live graph at a time: Build invalidates the
// graph the previous call returned, and Compact's result lives until
// the next Compact. Summary, DefUseChains, LiveWidths and
// AppendDiagnostics return caller-owned results. All of them accept a
// graph built by any Scratch. The zero value is ready to use.
type Scratch struct {
	g      CFG
	blocks []*Block // [:used] handed to the live CFG
	used   int
	exprs  []*cppast.ExprStmt
	usedEx int
	loops  []loopCtx

	// Dirty marks: the most blocks and exprs taken by one Build since
	// the last Release. Every pooled slot past its mark is zero.
	dirty, dirtyEx int

	cp compactor
	fa funcAnalysis
}

// unitScratch recycles the workspaces Analyze and Fingerprint take.
var unitScratch = sync.Pool{New: func() any { return new(Scratch) }}

// putScratch releases s and returns it to the pool.
func putScratch(s *Scratch) {
	s.Release()
	unitScratch.Put(s)
}

// takeBlock returns a zeroed Block whose slice fields keep their old
// capacity.
func (s *Scratch) takeBlock() *Block {
	if s.used == len(s.blocks) {
		s.blocks = append(s.blocks, &Block{})
	}
	blk := s.blocks[s.used]
	s.used++
	s.dirty = max(s.dirty, s.used)
	resetBlock(blk)
	return blk
}

// resetBlock zeroes blk, clearing its statements and case values only
// as far as its last use wrote them, so every slot past a block
// slice's length stays zero. Its edges point only at the Scratch's own
// blocks and are truncated.
func resetBlock(blk *Block) {
	*blk = Block{
		Stmts:    reuse.Slab(blk.Stmts),
		Succs:    blk.Succs[:0],
		Preds:    blk.Preds[:0],
		CaseVals: reuse.Slab(blk.CaseVals),
	}
}

// takeExprStmt returns a recycled ExprStmt wrapping x.
func (s *Scratch) takeExprStmt(x cppast.Node) *cppast.ExprStmt {
	if s.usedEx == len(s.exprs) {
		s.exprs = append(s.exprs, &cppast.ExprStmt{})
	}
	e := s.exprs[s.usedEx]
	s.usedEx++
	s.dirtyEx = max(s.dirtyEx, s.usedEx)
	*e = cppast.ExprStmt{X: x}
	return e
}

// Release drops every reference into the last-analyzed source (block
// statement lists, conditions, materialized post clauses, compacted
// statement runs, variable names) so a pooled scratch does not pin a
// request's tree between uses. It visits only the slots written since
// the last Release (see package reuse), and drops what outgrew the
// reuse caps; the rest keep their capacity.
func (s *Scratch) Release() {
	if len(s.blocks) > reuse.MaxSlots {
		// Every graph slab (edges, the walk, the compactor's and the
		// dataflow's per-block state) points into the block pool or
		// is sized by it: drop them together.
		*s = Scratch{}
		return
	}
	for _, blk := range s.blocks[:s.dirty] {
		resetBlock(blk)
	}
	for _, e := range s.exprs[:s.dirtyEx] {
		*e = cppast.ExprStmt{}
	}
	s.g = CFG{Blocks: s.g.Blocks[:0], reach: s.g.reach, rpo: s.g.rpo[:0]}
	s.used, s.usedEx, s.dirty, s.dirtyEx = 0, 0, 0, 0
	s.cp.release()
	s.fa.release()
}
