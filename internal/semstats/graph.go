package semstats

import "gptattr/internal/cppast"

// node is one block of the compacted per-function graph. Successor and
// predecessor edges are indices into graph.nodes.
type node struct {
	stmts []cppast.Node
	cond  cppast.Node
	succs []int
	preds []int
}

// graph is a compacted CFG in reverse postorder: trivial empty blocks
// dissolved and straight-line chains merged, mirroring the fingerprint
// serializer's normal form. The compaction is what makes a for-loop and
// its while-rewrite produce identical shape metrics: the raw builder
// materializes different block counts for the two forms, the compact
// graph does not. nodes[0] is the entry.
type graph struct {
	nodes []*node
}
