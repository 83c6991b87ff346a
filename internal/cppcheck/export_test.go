package cppcheck

import "gptattr/internal/cppast"

// CFGSeeds exposes the FuzzBuildCFG seed corpus to the external
// fingerprint golden test.
var CFGSeeds = cfgSeeds

// releaseSlots is the number of slots the next Release visits: the
// blocks and exprs up to their dirty marks with the statements and
// case values each block holds, the compactor's working and output
// nodes up to their marks with its statement arena, and the dataflow's
// variables.
func (s *Scratch) releaseSlots() int {
	n := s.dirty + s.dirtyEx + s.cp.dirty + s.cp.dirtyNodes + len(s.cp.stmtBuf) + len(s.fa.vars)
	for _, blk := range s.blocks[:s.dirty] {
		n += len(blk.Stmts) + len(blk.CaseVals)
	}
	return n
}

// staleSlot returns a description of the first slot anywhere in the
// Scratch's capacity that still refers to an analyzed unit, or "" when
// every one is zero, as every one must be after Release.
func (s *Scratch) staleSlot() string {
	if s.used != 0 || s.usedEx != 0 || s.dirty != 0 || s.dirtyEx != 0 || s.cp.dirty != 0 || s.cp.dirtyNodes != 0 {
		return "a use counter or dirty mark is not zero"
	}
	if s.g.Fn != nil || s.g.Entry != nil || len(s.g.Blocks) != 0 || s.fa.g != nil || s.fa.funcs != nil || len(s.fa.varID) != 0 {
		return "the graph or the dataflow still refers to the last function"
	}
	nodes := func(ns []cppast.Node) bool {
		for _, n := range ns[:cap(ns)] {
			if n != nil {
				return true
			}
		}
		return false
	}
	for i, blk := range s.blocks {
		if blk.Cond != nil || blk.Label != "" || nodes(blk.Stmts) || nodes(blk.CaseVals) {
			return "a pooled block"
		}
		if i >= s.dirty && (len(blk.Stmts) != 0 || len(blk.Succs) != 0 || len(blk.Preds) != 0 || len(blk.CaseVals) != 0) {
			return "a block past the dirty mark"
		}
	}
	for _, e := range s.exprs {
		if e.X != nil {
			return "a pooled for-post wrapper"
		}
	}
	for _, w := range s.cp.cns {
		if w.cond != nil || w.stmts != nil || w.caseVals != nil {
			return "a working compact node"
		}
	}
	for _, nd := range s.cp.nodes[:cap(s.cp.nodes)] {
		if nd.Cond != nil || nd.Stmts != nil || nd.CaseVals != nil {
			return "an output compact node"
		}
	}
	if nodes(s.cp.stmtBuf) {
		return "the compactor's statement arena"
	}
	for _, v := range s.fa.vars[:cap(s.fa.vars)] {
		if v != (VarInfo{}) {
			return "a dataflow variable"
		}
	}
	return ""
}
