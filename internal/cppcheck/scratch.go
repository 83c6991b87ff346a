package cppcheck

import (
	"sync"

	"gptattr/internal/cppast"
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
	blocks []*Block // high-water pool; [:used] handed to the live CFG
	used   int
	exprs  []*cppast.ExprStmt
	usedEx int
	loops  []loopCtx

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
	if s.used < len(s.blocks) {
		blk := s.blocks[s.used]
		s.used++
		*blk = Block{
			Stmts:    blk.Stmts[:0],
			Succs:    blk.Succs[:0],
			Preds:    blk.Preds[:0],
			CaseVals: blk.CaseVals[:0],
		}
		return blk
	}
	blk := &Block{}
	s.blocks = append(s.blocks, blk)
	s.used++
	return blk
}

// takeExprStmt returns a recycled ExprStmt wrapping x.
func (s *Scratch) takeExprStmt(x cppast.Node) *cppast.ExprStmt {
	if s.usedEx < len(s.exprs) {
		e := s.exprs[s.usedEx]
		s.usedEx++
		*e = cppast.ExprStmt{X: x}
		return e
	}
	e := &cppast.ExprStmt{X: x}
	s.exprs = append(s.exprs, e)
	s.usedEx++
	return e
}

// Release drops every reference into the last-analyzed source (block
// statement lists, conditions, materialized post clauses, compacted
// statement runs, variable names) so a pooled scratch does not pin a
// request's tree between uses. The slabs keep their capacity.
func (s *Scratch) Release() {
	for _, blk := range s.blocks {
		*blk = Block{
			Stmts:    blk.Stmts[:0:cap(blk.Stmts)],
			Succs:    blk.Succs[:0:cap(blk.Succs)],
			Preds:    blk.Preds[:0:cap(blk.Preds)],
			CaseVals: blk.CaseVals[:0:cap(blk.CaseVals)],
		}
		clear(blk.Stmts[:cap(blk.Stmts)])
		clear(blk.Succs[:cap(blk.Succs)])
		clear(blk.Preds[:cap(blk.Preds)])
		clear(blk.CaseVals[:cap(blk.CaseVals)])
	}
	for _, e := range s.exprs {
		*e = cppast.ExprStmt{}
	}
	s.g = CFG{Blocks: s.g.Blocks[:0], reach: s.g.reach, rpo: s.g.rpo[:0]}
	s.used, s.usedEx = 0, 0
	s.cp.release()
	s.fa.release()
}
