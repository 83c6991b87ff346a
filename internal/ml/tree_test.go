package ml

import "math/rand"

// Single-tree entry points for tests. Training ships only through
// FitForest; golden, fuzz and benchmark tests grow one tree directly.

// FitTree grows a tree on the rows of d indexed by idx (all rows when
// idx is nil; duplicate indices — bootstrap samples — are fine). The
// rng drives feature subsampling; it may be nil when cfg.MTry is 0.
func FitTree(d *Dataset, idx []int, cfg TreeConfig, rng *rand.Rand) (*Tree, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	ctx := newTrainCtx(d)
	if idx == nil {
		idx = make([]int, len(d.X))
		for i := range idx {
			idx[i] = i
		}
	}
	return newTreeBuilder(ctx).fit(idx, cfg, rng), nil
}

// NumNodes returns the node count (diagnostics).
func (t *Tree) NumNodes() int { return len(t.nodes) }

// Depth returns the maximum depth of the fitted tree (root = 0).
func (t *Tree) Depth() int {
	if len(t.nodes) == 0 {
		return 0
	}
	var rec func(i int32) int
	rec = func(i int32) int {
		n := &t.nodes[i]
		if n.feature < 0 {
			return 0
		}
		l, r := rec(n.left), rec(n.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return rec(0)
}
