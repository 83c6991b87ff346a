package ml

import (
	"math"
	"math/rand"
)

// TreeConfig controls CART tree induction.
type TreeConfig struct {
	// MaxDepth bounds tree depth; 0 means unbounded.
	MaxDepth int
	// MinSamplesLeaf is the minimum samples a leaf may hold (default 1).
	MinSamplesLeaf int
	// MTry is the number of features sampled at each split; 0 means use
	// all features (a plain CART tree). Random forests set this to
	// roughly sqrt(d).
	MTry int
}

func (c TreeConfig) minLeaf() int {
	if c.MinSamplesLeaf < 1 {
		return 1
	}
	return c.MinSamplesLeaf
}

// treeNode is one node of a fitted tree; leaves have feature == -1.
type treeNode struct {
	feature   int
	threshold float64
	left      int32 // child indices into Tree.nodes
	right     int32
	class     int32 // majority class at this node
}

// Tree is a fitted CART decision tree using the Gini criterion and
// binary splits of the form x[f] <= t.
type Tree struct {
	nodes      []treeNode
	numClasses int
}

// smallNode is the node size at or below which split search gathers
// the member (value, class) pairs into scratch and insertion-sorts
// them instead of consulting maintained orders or histograms. Feature
// orders stop being partitioned once no descendant can exceed it.
const smallNode = 32

// treeBuilder grows CART trees without ever sorting at a node. Three
// exact split-scan paths cover every case:
//
//   - coded features (≤ maxBins distinct values) are scanned through
//     exact per-value counting histograms over precomputed rank codes;
//   - wide features keep the classic pre-sorted row order, derived once
//     per tree from the colMatrix's full-dataset sort and maintained
//     down the tree by stable partitioning;
//   - nodes of at most smallNode samples insertion-sort a gathered
//     scratch copy, so order maintenance stops high up the tree.
//
// All three evaluate identical boundaries with identical float
// arithmetic, so the chosen splits are bit-identical to the classic
// per-node re-sorting implementation. All scratch is reused across
// trees; steady-state induction allocates nothing but the tree's own
// node array.
type treeBuilder struct {
	ctx  *trainCtx
	cfg  TreeConfig
	rng  *rand.Rand
	tree *Tree
	nb   int // current node-set (bootstrap) size

	// samples is the node membership list; grow() operates on segments
	// [lo,hi) which are stable-partitioned in place at each split.
	samples []int32
	// order holds, per wide slot, the node's samples sorted by that
	// feature's value: slot w's segment is order[w*nb+lo : w*nb+hi].
	// Stable partitioning preserves sortedness.
	order []int32
	// staleLo/staleHi track, per wide slot, the segment [lo,hi) in
	// which the feature was found constant and its order stopped being
	// maintained. A constant feature has no split boundaries, so its
	// (now garbage) order is never consulted inside that segment, and
	// constancy is inherited by every sub-segment; DFS discipline makes
	// one interval per slot sufficient.
	staleLo, staleHi []int32
	// side marks, per dataset row, which side of the current split the
	// row falls on (all bootstrap copies of a row share feature values
	// and therefore a side). Drives branchless partitioning.
	side []uint64
	// invTab[k] = 1/k: turns the fast-gini divisions into multiplies.
	invTab []float64
	// small-node gather scratch
	smallVals [smallNode]float64
	smallCls  [smallNode]int32
	// ycls[i] caches Y[samples[i]] for the node being split, so the
	// candidate-feature scans read classes with unit stride instead of
	// re-gathering per feature. Refilled by grow for each node.
	ycls []int32
	// other scratch
	part       []int32 // partition right-half staging, nb entries
	rep        []int32 // per-row bootstrap multiplicity, n entries
	permBuf    []int   // feature subsampling, nf entries
	counts     []int   // per-class counts at the current node
	present    []int32 // classes with nonzero counts at the current node
	leftCount  []int
	rightCount []int
	hist       []int32 // per-code class counts (coded scan)
	seen       []uint8 // per-code occupancy flags (coded scan)
	touched    []int32 // codes seen at the current node (coded scan)
}

// newTreeBuilder allocates a builder whose scratch is shared across
// every tree it fits.
func newTreeBuilder(ctx *trainCtx) *treeBuilder {
	return &treeBuilder{ctx: ctx}
}

// fit grows one tree over the (possibly repeated) row indices idx.
func (b *treeBuilder) fit(idx []int, cfg TreeConfig, rng *rand.Rand) *Tree {
	b.cfg = cfg
	b.rng = rng
	b.reset(idx)
	b.tree = &Tree{
		numClasses: b.ctx.d.NumClasses,
		// A binary tree over nb samples has at most 2*nb-1 nodes:
		// presizing makes node appends allocation-free.
		nodes: make([]treeNode, 0, 2*len(idx)-1),
	}
	b.grow(0, b.nb, 0)
	return b.tree
}

// reset sizes the scratch for a node set of len(idx) samples and
// derives the root's per-wide-feature sorted orders from the shared
// full-dataset sort.
func (b *treeBuilder) reset(idx []int) {
	cm := b.ctx.cm
	n := cm.n
	b.nb = len(idx)
	if cap(b.samples) < b.nb {
		b.samples = make([]int32, b.nb)
		b.part = make([]int32, b.nb)
		b.ycls = make([]int32, b.nb)
		b.invTab = make([]float64, b.nb+1)
		for k := 1; k <= b.nb; k++ {
			b.invTab[k] = 1 / float64(k)
		}
	}
	b.samples = b.samples[:b.nb]
	b.ycls = b.ycls[:b.nb]
	b.part = b.part[:b.nb]
	for i, row := range idx {
		b.samples[i] = int32(row)
	}
	c := b.ctx.d.NumClasses
	if cap(b.counts) < c {
		b.counts = make([]int, c)
		b.leftCount = make([]int, c)
		b.rightCount = make([]int, c)
		b.present = make([]int32, 0, c)
	}
	b.counts = b.counts[:c]
	b.leftCount = b.leftCount[:c]
	b.rightCount = b.rightCount[:c]
	if cap(b.permBuf) < cm.nf {
		b.permBuf = make([]int, cm.nf)
	}
	b.permBuf = b.permBuf[:cm.nf]
	if cap(b.side) < (n+63)/64 {
		b.side = make([]uint64, (n+63)/64)
	}
	b.side = b.side[:(n+63)/64]

	b.sizeHist(cm.maxK, c)
	nw := cm.nWide()
	if cap(b.staleLo) < nw {
		b.staleLo = make([]int32, nw)
		b.staleHi = make([]int32, nw)
	}
	b.staleLo = b.staleLo[:nw]
	b.staleHi = b.staleHi[:nw]
	for w := 0; w < nw; w++ {
		b.staleLo[w], b.staleHi[w] = 1, 0 // empty interval: covers nothing
	}

	// Expand the full-dataset sorted order of each wide feature into
	// this node set, honouring bootstrap multiplicity. Each slot's
	// segment is the node's rows sorted ascending by that feature.
	if cap(b.rep) < n {
		b.rep = make([]int32, n)
	}
	b.rep = b.rep[:n]
	clear(b.rep)
	for _, row := range idx {
		b.rep[row]++
	}
	if cap(b.order) < nw*b.nb {
		b.order = make([]int32, nw*b.nb)
	}
	b.order = b.order[:nw*b.nb]
	for w := 0; w < nw; w++ {
		dst := b.order[w*b.nb : (w+1)*b.nb]
		pos := 0
		for _, row := range cm.sortedCol(int(cm.wideFeat[w])) {
			r := b.rep[row]
			if r == 0 {
				continue
			}
			dst[pos] = row
			pos++
			for ; r > 1; r-- {
				dst[pos] = row
				pos++
			}
		}
	}
}

// sizeHist sizes the per-code histogram scratch for maxB codes.
func (b *treeBuilder) sizeHist(maxB, classes int) {
	if maxB == 0 {
		return
	}
	if cap(b.hist) < maxB*classes {
		b.hist = make([]int32, maxB*classes)
		b.seen = make([]uint8, maxB)
		b.touched = make([]int32, 0, maxB)
	}
	b.hist = b.hist[:maxB*classes]
	b.seen = b.seen[:maxB]
}

// permInto reproduces rand.Perm's exact draw sequence into buf, so
// feature subsampling consumes the rng identically to the seed
// implementation (which called rng.Perm) without allocating.
// TestPermIntoMatchesRandPerm pins the equivalence.
func permInto(rng *rand.Rand, buf []int) {
	for i := range buf {
		j := rng.Intn(i + 1)
		buf[i] = buf[j]
		buf[j] = i
	}
}

// grow builds the subtree for the node segment [lo,hi) and returns its
// node index.
func (b *treeBuilder) grow(lo, hi, depth int) int32 {
	y := b.ctx.d.Y
	counts := b.counts
	clear(counts)
	present := b.present[:0]
	ycls := b.ycls
	for i, row := range b.samples[lo:hi] {
		cls := y[row]
		ycls[lo+i] = int32(cls)
		if counts[cls] == 0 {
			present = append(present, int32(cls))
		}
		counts[cls]++
	}
	b.present = present
	best := 0
	for c, n := range counts {
		if n > counts[best] {
			best = c
		}
	}
	nodeIdx := int32(len(b.tree.nodes))
	b.tree.nodes = append(b.tree.nodes, treeNode{feature: -1, class: int32(best)})

	nNode := hi - lo
	pure := counts[best] == nNode
	if pure || nNode < 2*b.cfg.minLeaf() ||
		(b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) {
		return nodeIdx
	}

	feat, thr, ok := b.bestSplit(lo, hi, counts)
	if !ok {
		return nodeIdx
	}

	// Split membership is decided by the same raw-value comparison the
	// seed implementation used (x[f] <= thr). The float midpoint threshold can round up onto the right-hand
	// value, leaving one side empty: mirror the seed's guard and leave
	// a leaf.
	nLeft := b.markSides(feat, thr, lo, hi)
	if nLeft == 0 || nLeft == nNode {
		return nodeIdx
	}

	b.partition(lo, hi, nLeft)
	l := b.grow(lo, lo+nLeft, depth+1)
	r := b.grow(lo+nLeft, hi, depth+1)
	n := &b.tree.nodes[nodeIdx]
	n.feature = feat
	n.threshold = thr
	n.left = l
	n.right = r
	return nodeIdx
}

// markSides records each member row's split side in the side bitmask
// and returns the left-hand sample count (bootstrap copies included).
func (b *treeBuilder) markSides(feat int, thr float64, lo, hi int) int {
	col := b.ctx.cm.col(feat)
	side := b.side
	nl := 0
	for _, row := range b.samples[lo:hi] {
		w, bit := row>>6, uint64(1)<<(uint32(row)&63)
		if col[row] <= thr {
			side[w] |= bit
			nl++
		} else {
			side[w] &^= bit
		}
	}
	return nl
}

// partition stable-partitions the node segment [lo,hi) of the
// membership list and of every wide feature's sorted order around the
// sides recorded by markSides. Stability preserves each order
// segment's sortedness, which is what lets children skip sorting.
// Order maintenance stops once no descendant can exceed smallNode
// (small nodes re-gather from the membership list), and features that
// became constant in this segment are skipped and marked stale: with
// no boundaries left, their order is never consulted below here.
func (b *treeBuilder) partition(lo, hi, nLeft int) {
	b.partitionSeg(b.samples[lo:hi])
	// Order segments are consulted only at nodes larger than smallNode
	// (smaller ones re-gather), so a child's segment needs maintaining
	// only when that child can itself exceed smallNode. When neither
	// can, the wide orders below this point are dead and left as-is.
	nRight := hi - lo - nLeft
	if nLeft <= smallNode && nRight <= smallNode {
		return
	}
	cm := b.ctx.cm
	nb := b.nb
	lo32, hi32 := int32(lo), int32(hi)
	for w := 0; w < cm.nWide(); w++ {
		if b.staleLo[w] <= lo32 && hi32 <= b.staleHi[w] {
			continue
		}
		seg := b.order[w*nb+lo : w*nb+hi]
		col := cm.col(int(cm.wideFeat[w]))
		// Sorted segment: constant iff the two ends agree.
		if col[seg[0]] == col[seg[len(seg)-1]] {
			b.staleLo[w], b.staleHi[w] = lo32, hi32
			continue
		}
		side := b.side
		part := b.part[:len(seg)]
		nl := 0
		for i, row := range seg {
			isL := int((side[row>>6] >> (uint32(row) & 63)) & 1)
			part[i-nl] = row
			seg[nl] = row
			nl += isL
		}
		// A small right child never reads its segment (nor do its even
		// smaller descendants), so the copy-back can be elided; the
		// stale garbage it leaves is provably never consulted.
		if nRight > smallNode {
			copy(seg[nl:], part[:len(seg)-nl])
		}
	}
}

// partitionSeg moves left-side rows to the front of seg, preserving
// relative order on both sides. Both candidate stores happen
// unconditionally (the loser slot is overwritten later or never read),
// so the random left/right outcome costs no branch misprediction.
func (b *treeBuilder) partitionSeg(seg []int32) {
	side := b.side
	part := b.part[:len(seg)]
	nl := 0
	for i, row := range seg {
		isL := int((side[row>>6] >> (uint32(row) & 63)) & 1)
		part[i-nl] = row
		seg[nl] = row
		nl += isL
	}
	copy(seg[nl:], part[:len(seg)-nl])
}

// candidates fills the candidate feature list for one split, matching
// the seed implementation's rng consumption exactly: all features in
// index order when mtry covers them all, otherwise the first mtry
// entries of a Fisher-Yates permutation.
func (b *treeBuilder) candidates() []int {
	nf := b.ctx.cm.nf
	mtry := b.cfg.MTry
	if mtry <= 0 || mtry > nf {
		mtry = nf
	}
	if mtry == nf {
		for i := range b.permBuf {
			b.permBuf[i] = i
		}
		return b.permBuf
	}
	permInto(b.rng, b.permBuf)
	return b.permBuf[:mtry]
}

// giniFilterEps over-bounds the absolute difference between the fast
// sum-of-squares impurity and the exact per-class float computation the
// seed used. The integer count sums are exact; the float rounding error
// is O(numClasses·2⁻⁵³) for the exact form and O(2⁻⁵³) for the fast
// form, so 1e-9 leaves a ≥10³ safety margin for any numClasses ≤ 10⁶
// (and the int64 squared sums are exact for n ≤ 9·10⁷).
const giniFilterEps = 1e-9

// splitScan carries the incumbent best split across the per-feature
// scans of one node's split search.
type splitScan struct {
	n          int // node size
	minLeaf    int
	parentGini float64
	invN       float64
	bestGain   float64
	bestGFast  float64
	bestFeat   int
	bestThr    float64
}

// boundary evaluates one candidate boundary: nl/nr samples and sl/sr
// squared class-count sums on each side, with raw values v < next
// around the cut. The fast O(1) sum-of-squares impurity filters out
// candidates that provably cannot beat the incumbent; survivors are
// re-evaluated with the seed implementation's exact per-class float
// arithmetic, so the comparison — and therefore the chosen split — is
// bit-identical. Winning requires a strictly lower exact impurity
// (float subtraction from the shared parent Gini is monotone
// non-increasing), so a candidate more than giniFilterEps above the
// incumbent's fast impurity can never win.
// confirm re-evaluates a filter-passing boundary with the seed's exact
// arithmetic and accepts it only on a strict gain improvement. The
// cheap reciprocal-table filter itself is open-coded at each scan's
// boundary site (scanWide, scanSmall, scanCoded) so the common
// filtered-out case never pays a call.
func (s *splitScan) confirm(b *treeBuilder, f, nl, nr int, gFast, v, next float64) {
	g := (float64(nl)*giniFromCounts(b.leftCount, nl) +
		float64(nr)*giniFromCounts(b.rightCount, nr)) / float64(s.n)
	if gain := s.parentGini - g; gain > s.bestGain {
		s.bestGain = gain
		s.bestFeat = f
		s.bestThr = (v + next) / 2
		s.bestGFast = gFast
	}
}

// bestSplit scans candidate features for the split minimizing weighted
// Gini impurity. Boundary positions, thresholds, accumulation
// arithmetic, and first-wins tie-breaking are identical to the seed
// per-node-sorting implementation: sorted tie order is unspecified in
// both, and split statistics only depend on value boundaries, which
// are tie-order invariant.
//
// Zero-gain splits are accepted (like scikit-learn): problems such as
// XOR have no first split with positive Gini gain, yet the children
// become separable. Termination holds because both sides of an
// accepted split are non-empty.
func (b *treeBuilder) bestSplit(lo, hi int, parentCounts []int) (int, float64, bool) {
	n := hi - lo
	s := splitScan{
		n:          n,
		minLeaf:    b.cfg.minLeaf(),
		parentGini: giniFromCounts(parentCounts, n),
		invN:       b.invTab[n],
		bestGain:   math.Inf(-1),
		bestGFast:  math.Inf(1),
		bestFeat:   -1,
	}
	var srParent int64
	for _, c := range b.present {
		srParent += int64(parentCounts[c]) * int64(parentCounts[c])
	}
	cm := b.ctx.cm
	for _, f := range b.candidates() {
		if cs := cm.codeOf[f]; cs >= 0 {
			b.scanCoded(&s, f, int(cs), lo, hi, parentCounts, srParent)
		} else if n <= smallNode {
			b.scanSmall(&s, f, lo, hi, parentCounts, srParent)
		} else {
			b.scanWide(&s, f, int(cm.wideIdx[f]), lo, hi, parentCounts, srParent)
		}
	}
	return s.bestFeat, s.bestThr, s.bestFeat >= 0
}

// initSides resets the per-class scan state to "everything right".
// Only the node's present classes are touched; doneSides keeps the
// invariant that leftCount/rightCount are all-zero elsewhere, which is
// what makes the exact-gini fallback correct for absent classes.
func (b *treeBuilder) initSides(parentCounts []int) {
	for _, c := range b.present {
		b.leftCount[c] = 0
		b.rightCount[c] = parentCounts[c]
	}
}

// doneSides rezeroes the scan state after a feature scan.
func (b *treeBuilder) doneSides() {
	for _, c := range b.present {
		b.leftCount[c] = 0
		b.rightCount[c] = 0
	}
}

// scanWide walks wide slot w's pre-sorted node segment, evaluating
// every value boundary.
func (b *treeBuilder) scanWide(s *splitScan, f, w, lo, hi int, parentCounts []int, srParent int64) {
	lo32, hi32 := int32(lo), int32(hi)
	if b.staleLo[w] <= lo32 && hi32 <= b.staleHi[w] {
		return // constant here: no boundaries, nothing to evaluate
	}
	n := hi - lo
	y := b.ctx.d.Y
	seg := b.order[w*b.nb+lo : w*b.nb+hi]
	col := b.ctx.cm.col(f)

	b.initSides(parentCounts)
	leftCounts, rightCounts := b.leftCount, b.rightCount
	inv, invN, minLeaf := b.invTab, s.invN, s.minLeaf
	sl, sr := int64(0), srParent
	nl, nr := 0, n
	v := col[seg[0]]
	for i := 0; i < n-1; i++ {
		row := seg[i]
		cls := y[row]
		l := leftCounts[cls]
		sl += int64(2*l + 1)
		leftCounts[cls] = l + 1
		r := rightCounts[cls]
		sr -= int64(2*r - 1)
		rightCounts[cls] = r - 1
		nl++
		nr--
		next := col[seg[i+1]]
		if v != next {
			if nl >= minLeaf && nr >= minLeaf {
				gFast := (float64(nl) - float64(sl)*inv[nl] +
					float64(nr) - float64(sr)*inv[nr]) * invN
				if gFast < s.bestGFast+giniFilterEps {
					s.confirm(b, f, nl, nr, gFast, v, next)
				}
			}
			v = next
		}
	}
	b.doneSides()
}

// scanSmall gathers the node's (value, class) pairs into fixed scratch,
// insertion-sorts by value (tie order is irrelevant), and runs the
// standard boundary scan. Used for every feature once a node fits in
// smallNode samples, which is what lets order maintenance stop high up
// the tree.
func (b *treeBuilder) scanSmall(s *splitScan, f, lo, hi int, parentCounts []int, srParent int64) {
	n := hi - lo
	col := b.ctx.cm.col(f)
	vals := b.smallVals[:n]
	cls := b.smallCls[:n]
	copy(cls, b.ycls[lo:hi])
	for i, row := range b.samples[lo:hi] {
		vals[i] = col[row]
	}
	for i := 1; i < n; i++ {
		v, c := vals[i], cls[i]
		j := i - 1
		for j >= 0 && vals[j] > v {
			vals[j+1], cls[j+1] = vals[j], cls[j]
			j--
		}
		vals[j+1], cls[j+1] = v, c
	}
	if vals[0] == vals[n-1] {
		return // constant in this node
	}

	b.initSides(parentCounts)
	leftCounts, rightCounts := b.leftCount, b.rightCount
	inv, invN, minLeaf := b.invTab, s.invN, s.minLeaf
	sl, sr := int64(0), srParent
	nl, nr := 0, n
	for i := 0; i < n-1; i++ {
		c := cls[i]
		l := leftCounts[c]
		sl += int64(2*l + 1)
		leftCounts[c] = l + 1
		r := rightCounts[c]
		sr -= int64(2*r - 1)
		rightCounts[c] = r - 1
		nl++
		nr--
		if vals[i] != vals[i+1] && nl >= minLeaf && nr >= minLeaf {
			gFast := (float64(nl) - float64(sl)*inv[nl] +
				float64(nr) - float64(sr)*inv[nr]) * invN
			if gFast < s.bestGFast+giniFilterEps {
				s.confirm(b, f, nl, nr, gFast, vals[i], vals[i+1])
			}
		}
	}
	b.doneSides()
}

// scanCoded evaluates coded slot cs through an exact per-value counting
// histogram: one pass accumulates per-code class counts, then the
// present codes are walked in ascending value order, emitting exactly
// the boundaries a sorted scan would (between consecutive present
// values, with the same midpoint thresholds).
func (b *treeBuilder) scanCoded(s *splitScan, f, cs, lo, hi int, parentCounts []int, srParent int64) {
	cm := b.ctx.cm
	n := hi - lo
	nc := b.ctx.d.NumClasses
	codes := cm.codedCol(cs)
	vals := cm.vals[cs]
	hist := b.hist
	seen := b.seen
	ycls := b.ycls
	touched := b.touched[:0]
	// Occupancy is tracked with a byte map set by a plain store: unlike
	// a per-code counter, repeated codes (sparse features are mostly one
	// value) carry no serialized load-increment-store dependency chain.
	for i, row := range b.samples[lo:hi] {
		code := int32(codes[row])
		if seen[code] == 0 {
			seen[code] = 1
			touched = append(touched, code)
		}
		hist[int(code)*nc+int(ycls[lo+i])]++
	}
	b.touched = touched
	if len(touched) >= 2 {
		b.initSides(parentCounts)
		leftCounts, rightCounts := b.leftCount, b.rightCount
		inv, invN, minLeaf := b.invTab, s.invN, s.minLeaf
		sl, sr := int64(0), srParent
		nl, nr := 0, n
		remaining := len(touched)
		for k := 0; remaining > 1; k++ {
			if seen[k] == 0 {
				continue
			}
			remaining--
			// The bin total is recovered from the class merge itself.
			t := int64(0)
			base := k * nc
			for _, c := range b.present {
				d := int64(hist[base+int(c)])
				if d == 0 {
					continue
				}
				t += d
				l := int64(leftCounts[c])
				sl += d * (2*l + d)
				leftCounts[c] = int(l + d)
				r := int64(rightCounts[c])
				sr -= d * (2*r - d)
				rightCounts[c] = int(r - d)
			}
			nl += int(t)
			nr -= int(t)
			k2 := k + 1
			for seen[k2] == 0 {
				k2++
			}
			if nl >= minLeaf && nr >= minLeaf {
				gFast := (float64(nl) - float64(sl)*inv[nl] +
					float64(nr) - float64(sr)*inv[nr]) * invN
				if gFast < s.bestGFast+giniFilterEps {
					s.confirm(b, f, nl, nr, gFast, vals[k], vals[k2])
				}
			}
		}
		b.doneSides()
	}
	for _, tc := range touched {
		seen[tc] = 0
		base := int(tc) * nc
		for _, c := range b.present {
			hist[base+int(c)] = 0
		}
	}
}

// giniFromCounts computes 1 - sum(p^2).
func giniFromCounts(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	s := 0.0
	fn := float64(n)
	for _, c := range counts {
		if c == 0 { // 0/fn squared adds exactly +0.0: skipping is bit-identical
			continue
		}
		p := float64(c) / fn
		s += p * p
	}
	return 1 - s
}

// Predict returns the class for one sample.
func (t *Tree) Predict(x []float64) int {
	i := int32(0)
	for {
		n := &t.nodes[i]
		if n.feature < 0 {
			return int(n.class)
		}
		if x[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}
