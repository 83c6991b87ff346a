package stylometry

import (
	"context"

	"gptattr/internal/cppast"
)

// semanticFeaturesCtxVec appends the semstats-derived feature group:
// CFG shape, loop nesting, def-use/live-range distributions, call-graph
// position, and alpha-normalized expression-shape grams. Every feature
// name carries the "Sem" prefix (FamilySemantic); "SemShape:" grams are
// open-vocabulary term features, everything else is a fixed scalar.
//
// The whole group is computed on normalized forms (compacted graphs,
// erased identifiers, block-count live ranges), so it is bit-identical
// under the rename and layout actions of internal/evade — pinned by
// TestSemanticInvariantUnderRenameAndLayout.
//
// The pass is budgeted: the semstats pipeline checks ctx at every
// function boundary, and on budget exhaustion NO semantic feature is
// written — the family is all-or-nothing so the degraded vector's
// content depends only on the level, never on how far the pass got
// (determinism under latency storms).
func semanticFeaturesCtxVec(ctx context.Context, sc *scratch, tu *cppast.TranslationUnit) error {
	fv := &sc.vec
	fs, err := sc.sem.AnalyzeContext(ctx, tu)
	if err != nil {
		return err
	}
	fv.Set(sidSemFuncCount, float64(len(fs.Funcs)))
	fv.Set(sidSemCallEdges, float64(fs.CallEdges))
	fv.Set(sidSemRecursiveFuncs, float64(fs.RecursiveFuncs))
	if len(fs.Funcs) == 0 {
		return nil
	}
	var (
		blocks, edges, branches, cyclo, back    int
		loops, depth1, depth2, depth3           int
		chains, useTotal, vars, liveTotal       int
		chains0, chains1, chains2, chains3      int
		maxCyclo, maxLoopDepth, maxChain        int
		maxLive, maxFanOut, maxFanIn, maxBlocks int
		branchFactorSum                         float64
	)
	for _, st := range fs.Funcs {
		blocks += st.Blocks
		edges += st.Edges
		branches += st.Branches
		cyclo += st.Cyclomatic
		back += st.BackEdges
		loops += st.Loops
		depth1 += st.LoopsAtDepth[0]
		depth2 += st.LoopsAtDepth[1]
		depth3 += st.LoopsAtDepth[2]
		chains += st.Chains
		useTotal += st.ChainUses
		chains0 += st.ChainsAtLen[0]
		chains1 += st.ChainsAtLen[1]
		chains2 += st.ChainsAtLen[2]
		chains3 += st.ChainsAtLen[3]
		vars += st.Vars
		liveTotal += st.LiveWidthSum
		branchFactorSum += st.BranchFactor
		maxCyclo = maxi(maxCyclo, st.Cyclomatic)
		maxLoopDepth = maxi(maxLoopDepth, st.MaxLoopDepth)
		maxChain = maxi(maxChain, st.MaxChainLen)
		maxLive = maxi(maxLive, st.MaxLiveWidth)
		maxFanOut = maxi(maxFanOut, st.FanOut)
		maxFanIn = maxi(maxFanIn, st.FanIn)
		maxBlocks = maxi(maxBlocks, st.Blocks)
		for _, g := range st.Grams {
			fv.AddShape(g.Gram, float64(g.N))
		}
	}
	nf := float64(len(fs.Funcs))
	fv.Set(sidSemBlocksTotal, float64(blocks))
	fv.Set(sidSemBlocksMax, float64(maxBlocks))
	fv.Set(sidSemEdgesTotal, float64(edges))
	fv.Set(sidSemBranchesTotal, float64(branches))
	fv.Set(sidSemBranchFactorMean, branchFactorSum/nf)
	fv.Set(sidSemCyclomaticMean, float64(cyclo)/nf)
	fv.Set(sidSemCyclomaticMax, float64(maxCyclo))
	fv.Set(sidSemBackEdgesTotal, float64(back))
	fv.Set(sidSemLoopsTotal, float64(loops))
	fv.Set(sidSemLoopDepthMax, float64(maxLoopDepth))
	fv.Set(sidSemLoopsDepth1, float64(depth1))
	fv.Set(sidSemLoopsDepth2, float64(depth2))
	fv.Set(sidSemLoopsDepth3, float64(depth3))
	fv.Set(sidSemChainsTotal, float64(chains))
	fv.Set(sidSemChainLenMax, float64(maxChain))
	if chains > 0 {
		fv.Set(sidSemChainLenMean, float64(useTotal)/float64(chains))
	}
	fv.Set(sidSemChains0, float64(chains0))
	fv.Set(sidSemChains1, float64(chains1))
	fv.Set(sidSemChains2, float64(chains2))
	fv.Set(sidSemChains3, float64(chains3))
	fv.Set(sidSemVarsTotal, float64(vars))
	fv.Set(sidSemLiveWidthMax, float64(maxLive))
	if vars > 0 {
		fv.Set(sidSemLiveWidthMean, float64(liveTotal)/float64(vars))
	}
	fv.Set(sidSemFanOutMax, float64(maxFanOut))
	fv.Set(sidSemFanInMax, float64(maxFanIn))
	return nil
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}
