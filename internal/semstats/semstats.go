// Package semstats is the static-analysis pass framework behind the
// semantic stylometry feature group. It runs per-function passes over
// internal/cppcheck's control-flow graphs — shape metrics of the
// compacted CFG (cppcheck.Scratch.Compact, the normal form the
// fingerprint serializes), natural-loop nesting, def-use chain and
// live-range statistics, a file-level call graph with fan-in/fan-out
// and recursion detection, and alpha-normalized expression-shape grams
// — and aggregates them into FuncStats/FileStats records that
// internal/stylometry folds into its feature vectors and
// cmd/cppcheck -metrics prints directly.
//
// One pipeline ships: Scratch.AnalyzeContext, which runs every pass for
// a function in sequence over recycled workspace (Analyze and
// AnalyzeContext wrap it with a fresh Scratch per call). A Scratch
// holds one cppcheck.Scratch, which builds each function's graph,
// compacts it and solves its dataflow, so the graph, its normal form
// and its dataflow summary all come from one workspace with one
// Release. The map-based
// reference pipeline it replaced lives in the package tests, which
// diff the two bit-for-bit. All outputs are deterministic: iteration
// is over slices in source or sorted order, never raw map order.
//
// The statistics are deliberately computed on normalized forms — the
// compact graph erases the for/while distinction, shape grams erase
// user naming, live-range widths are block counts rather than line
// spans — so the whole group is invariant under the rename and layout
// rewrites in internal/evade's action space (pinned by tests in
// internal/stylometry).
package semstats

import (
	"context"

	"gptattr/internal/cppast"
)

// PointAnalyze is the fault-injection point at every per-function pass
// boundary inside AnalyzeContext (see internal/fault). Arming it with
// latency models a slow semantic pass — the brownout chaos storms use
// it to force deadline-budgeted extraction onto the degraded path.
const PointAnalyze = "semstats.analyze"

// FuncStats are the semantic statistics of one function body.
type FuncStats struct {
	Name string `json:"name"`
	// Unsupported mirrors cppcheck.CFG.Unsupported: the body contained
	// constructs outside the analyzable subset, so the graph-derived
	// numbers describe shape only.
	Unsupported bool `json:"unsupported,omitempty"`

	// Shape of the compacted control-flow graph.
	Blocks       int     `json:"blocks"`
	Edges        int     `json:"edges"`
	Branches     int     `json:"branches"`
	BranchFactor float64 `json:"branch_factor"`
	Cyclomatic   int     `json:"cyclomatic"`
	BackEdges    int     `json:"back_edges"`

	// Natural-loop nesting profile.
	Loops        int    `json:"loops"`
	MaxLoopDepth int    `json:"max_loop_depth"`
	LoopsAtDepth [3]int `json:"loops_at_depth"` // depth 1, 2, >=3

	// Def-use chain distribution (use counts per definition).
	Chains       int     `json:"chains"`
	ChainUses    int     `json:"chain_uses"` // total use events over all chains
	MaxChainLen  int     `json:"max_chain_len"`
	MeanChainLen float64 `json:"mean_chain_len"`
	ChainsAtLen  [4]int  `json:"chains_at_len"` // 0, 1, 2, >=3 uses

	// Live-range widths in blocks, from the liveness pass.
	Vars          int     `json:"vars"`
	LiveWidthSum  int     `json:"live_width_sum"`
	MaxLiveWidth  int     `json:"max_live_width"`
	MeanLiveWidth float64 `json:"mean_live_width"`

	// Call-graph position (filled at file level by Analyze).
	FanOut    int  `json:"fan_out"`
	FanIn     int  `json:"fan_in"`
	Recursive bool `json:"recursive"`

	// Grams are the alpha-normalized expression-shape grams with their
	// counts, in order of first occurrence, so consumers see one order
	// on every run. Excluded from the JSON form: cmd/cppcheck -metrics
	// prints scalars.
	Grams []GramCount `json:"-"`
}

// GramCount is one expression-shape gram and its occurrence count.
type GramCount struct {
	Gram string
	N    int
}

// FileStats are the per-unit semantic statistics: one FuncStats per
// defined function in source order plus call-graph totals.
type FileStats struct {
	Funcs          []*FuncStats `json:"funcs"`
	CallEdges      int          `json:"call_edges"`
	RecursiveFuncs int          `json:"recursive_funcs"`
}

// Analyze runs the full pass pipeline over one translation unit.
func Analyze(tu *cppast.TranslationUnit) *FileStats {
	fs, _ := AnalyzeContext(context.Background(), tu)
	return fs
}

// AnalyzeContext is Analyze with a cancellation bound: the pass
// pipeline checks ctx at every function boundary (the natural pass
// granularity — one function's passes are not preemptible) and aborts
// with ctx.Err() when the budget is gone. On error the partial
// FileStats is discarded by callers: the semantic feature group is
// all-or-nothing, so a degraded vector's content is deterministic.
// No goroutines are spawned; cancellation costs one atomic check per
// function on the happy path.
//
// Each call runs on a fresh Scratch, so the result is caller-owned;
// serving paths that analyze a stream of units hold a Scratch and call
// its AnalyzeContext method directly to skip the per-call setup.
func AnalyzeContext(ctx context.Context, tu *cppast.TranslationUnit) (*FileStats, error) {
	return NewScratch().AnalyzeContext(ctx, tu)
}
