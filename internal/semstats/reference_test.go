package semstats

// The reference pass pipeline: the map-based, per-function FuncContext
// implementation of every semstats pass (CFG compaction, dominators,
// natural loops, expression-shape grams, the file-level call graph)
// that the allocation-free Scratch pipeline replaced. It lives only in
// tests: TestScratchMatchesReference diffs the shipped pipeline against
// it bit-for-bit, and the pass-level tests probe its pieces directly.

import (
	"sort"
	"strings"

	"gptattr/internal/cppast"
	"gptattr/internal/cppcheck"
)

// FuncContext carries one function through the pass pipeline, caching
// each computed artifact (CFG, compact graph, dominator tree, loop
// nest) so later passes reuse earlier ones instead of recomputing.
type FuncContext struct {
	fn      *cppast.FuncDecl
	funcs   map[string]*cppast.FuncDecl
	globals map[string]bool

	cfgDone   bool
	cfg       *cppcheck.CFG
	g         *graph
	idom      []int
	loopsDone bool
	loops     []loopInfo
	backEdges int
}

// NewFuncContext prepares the pass pipeline for fn. funcs maps every
// defined function of the unit by name (for reference-parameter
// resolution in the dataflow passes) and globals names the unit's
// file-scope variables (for shape-gram alpha classes); both may be nil
// and may be shared across contexts.
func NewFuncContext(fn *cppast.FuncDecl, funcs map[string]*cppast.FuncDecl, globals map[string]bool) *FuncContext {
	return &FuncContext{fn: fn, funcs: funcs, globals: globals}
}

// CFG returns the raw control-flow graph (nil for a bodyless
// prototype), building it on first use.
func (c *FuncContext) CFG() *cppcheck.CFG {
	if !c.cfgDone {
		c.cfg = new(cppcheck.Scratch).Build(c.fn)
		c.cfgDone = true
	}
	return c.cfg
}

// compactGraph returns the canonical compacted graph.
func (c *FuncContext) compactGraph() *graph {
	if c.g == nil {
		c.g = compact(c.CFG())
	}
	return c.g
}

// dominatorTree returns the immediate-dominator array of the compact
// graph.
func (c *FuncContext) dominatorTree() []int {
	if c.idom == nil {
		c.idom = dominators(c.compactGraph())
	}
	return c.idom
}

// loopNest returns the natural loops and raw back-edge count.
func (c *FuncContext) loopNest() ([]loopInfo, int) {
	if !c.loopsDone {
		c.loops, c.backEdges = naturalLoops(c.compactGraph(), c.dominatorTree())
		c.loopsDone = true
	}
	return c.loops, c.backEdges
}

// Stats runs every per-function pass and assembles the FuncStats.
// Call-graph fields (FanIn/FanOut/Recursive) are zero here; Analyze
// fills them from the file-level pass.
func (c *FuncContext) Stats() *FuncStats {
	st := &FuncStats{Name: c.fn.Name}
	g := c.CFG()
	if g == nil {
		return st
	}
	st.Unsupported = g.Unsupported

	// CFG shape.
	cg := c.compactGraph()
	st.Blocks = len(cg.nodes)
	st.Edges = cg.edgeCount()
	succTotal := 0
	for _, nd := range cg.nodes {
		if len(nd.succs) >= 2 {
			st.Branches++
		}
		succTotal += len(nd.succs)
	}
	if st.Blocks > 0 {
		st.BranchFactor = float64(succTotal) / float64(st.Blocks)
	}
	st.Cyclomatic = st.Edges - st.Blocks + 2

	// Loop nesting.
	loops, back := c.loopNest()
	st.BackEdges = back
	st.Loops = len(loops)
	depths, maxDepth := loopDepths(loops)
	st.MaxLoopDepth = maxDepth
	for _, d := range depths {
		switch {
		case d <= 1:
			st.LoopsAtDepth[0]++
		case d == 2:
			st.LoopsAtDepth[1]++
		default:
			st.LoopsAtDepth[2]++
		}
	}

	// Def-use chains (on the raw CFG: the dataflow passes own it).
	chains := new(cppcheck.Scratch).DefUseChains(g, c.funcs)
	st.Chains = len(chains)
	for _, ch := range chains {
		n := len(ch.UseLines)
		st.ChainUses += n
		if n > st.MaxChainLen {
			st.MaxChainLen = n
		}
		switch {
		case n == 0:
			st.ChainsAtLen[0]++
		case n == 1:
			st.ChainsAtLen[1]++
		case n == 2:
			st.ChainsAtLen[2]++
		default:
			st.ChainsAtLen[3]++
		}
	}
	if st.Chains > 0 {
		st.MeanChainLen = float64(st.ChainUses) / float64(st.Chains)
	}

	// Live-range widths.
	widths := new(cppcheck.Scratch).LiveWidths(g, c.funcs)
	st.Vars = len(widths)
	for _, w := range widths {
		st.LiveWidthSum += w.Width
		if w.Width > st.MaxLiveWidth {
			st.MaxLiveWidth = w.Width
		}
	}
	if st.Vars > 0 {
		st.MeanLiveWidth = float64(st.LiveWidthSum) / float64(st.Vars)
	}

	// Expression shapes, walked over the raw blocks in build order.
	sh := newShaper(c.fn, c.globals, unitFuncNames(c.funcs))
	grams := make(map[string]int)
	for _, b := range g.Blocks {
		for _, s := range b.Stmts {
			sh.stmtGrams(s, grams)
		}
		if b.Cond != nil {
			sh.gram(b.Cond, false, grams)
		}
	}
	st.Grams = gramList(grams)
	return st
}

// gramList turns a gram count map into the FuncStats list form, in
// sorted order (diffStats compares grams as a multiset).
func gramList(grams map[string]int) []GramCount {
	keys := make([]string, 0, len(grams))
	for g := range grams {
		keys = append(keys, g)
	}
	sort.Strings(keys)
	out := make([]GramCount, len(keys))
	for i, g := range keys {
		out[i] = GramCount{Gram: g, N: grams[g]}
	}
	return out
}

// unitFuncNames converts the defined-function map to the set form the
// shaper consumes.
func unitFuncNames(funcs map[string]*cppast.FuncDecl) map[string]bool {
	out := make(map[string]bool, len(funcs))
	for name := range funcs {
		out[name] = true
	}
	return out
}

// node is one block of the reference compacted graph. Successor and
// predecessor edges are indices into graph.nodes.
type node struct {
	stmts []cppast.Node
	cond  cppast.Node
	succs []int
	preds []int
}

// graph is the reference compacted CFG in reverse postorder, nodes[0]
// the entry: the map-based twin of cppcheck.Scratch.Compact's output.
type graph struct {
	nodes []*node
}

// cnode is the pointer-form working node used during compaction.
type cnode struct {
	stmts []cppast.Node
	cond  cppast.Node
	succs []*cnode
}

// reachable returns the set of blocks reachable from g.Entry.
func reachable(g *cppcheck.CFG) map[*cppcheck.Block]bool {
	seen := make(map[*cppcheck.Block]bool, len(g.Blocks))
	stack := []*cppcheck.Block{g.Entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b] {
			continue
		}
		seen[b] = true
		for _, s := range b.Succs {
			if !seen[s] {
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// compact reduces g to its canonical shape. Returns nil for a nil CFG.
func compact(g *cppcheck.CFG) *graph {
	if g == nil {
		return nil
	}
	reach := reachable(g)
	nodes := make(map[*cppcheck.Block]*cnode, len(g.Blocks))
	for _, b := range g.Blocks {
		if reach[b] {
			nodes[b] = &cnode{stmts: b.Stmts, cond: b.Cond}
		}
	}
	// Resolve edges, skipping trivial empty single-successor blocks.
	var resolve func(b *cppcheck.Block, seen map[*cppcheck.Block]bool) *cppcheck.Block
	resolve = func(b *cppcheck.Block, seen map[*cppcheck.Block]bool) *cppcheck.Block {
		if len(b.Stmts) > 0 || b.Cond != nil || len(b.Succs) != 1 || b == g.Exit || seen[b] {
			return b
		}
		seen[b] = true
		return resolve(b.Succs[0], seen)
	}
	for _, b := range g.Blocks {
		n := nodes[b]
		if n == nil {
			continue
		}
		for _, s := range b.Succs {
			t := resolve(s, map[*cppcheck.Block]bool{})
			n.succs = append(n.succs, nodes[t])
		}
	}
	entry := nodes[resolve(g.Entry, map[*cppcheck.Block]bool{})]
	exit := nodes[g.Exit] // nil when the exit is unreachable (infinite loop)

	// Merge straight-line chains: a condition-less node whose single
	// successor has a single predecessor absorbs it. One merge per
	// sweep, restarting, keeps the traversal state simple; functions are
	// small enough that the quadratic bound never matters.
	preds := func() map[*cnode]int {
		p := make(map[*cnode]int)
		var walk func(n *cnode, seen map[*cnode]bool)
		walk = func(n *cnode, seen map[*cnode]bool) {
			if seen[n] {
				return
			}
			seen[n] = true
			for _, s := range n.succs {
				p[s]++
				walk(s, seen)
			}
		}
		walk(entry, map[*cnode]bool{})
		return p
	}
	for {
		p := preds()
		merged := false
		var visit func(n *cnode, seen map[*cnode]bool)
		visit = func(n *cnode, seen map[*cnode]bool) {
			if seen[n] || merged {
				return
			}
			seen[n] = true
			if n.cond == nil && len(n.succs) == 1 {
				s := n.succs[0]
				if s != n && s != exit && s != entry && p[s] == 1 {
					n.stmts = append(append([]cppast.Node{}, n.stmts...), s.stmts...)
					n.cond = s.cond
					n.succs = s.succs
					merged = true
					return
				}
			}
			for _, s := range n.succs {
				visit(s, seen)
			}
		}
		visit(entry, map[*cnode]bool{})
		if !merged {
			break
		}
	}

	// Reverse-postorder numbering from the merged entry. RPO guarantees
	// every non-entry node has a predecessor with a smaller index (its
	// DFS tree parent), which the dominator pass relies on.
	var order []*cnode
	var po func(n *cnode, seen map[*cnode]bool)
	po = func(n *cnode, seen map[*cnode]bool) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, s := range n.succs {
			po(s, seen)
		}
		order = append(order, n)
	}
	po(entry, map[*cnode]bool{})
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	idx := make(map[*cnode]int, len(order))
	for i, n := range order {
		idx[n] = i
	}
	out := &graph{nodes: make([]*node, len(order))}
	for i, n := range order {
		out.nodes[i] = &node{stmts: n.stmts, cond: n.cond}
	}
	for i, n := range order {
		for _, s := range n.succs {
			j := idx[s]
			out.nodes[i].succs = append(out.nodes[i].succs, j)
			out.nodes[j].preds = append(out.nodes[j].preds, i)
		}
	}
	return out
}

// edgeCount returns the number of edges (parallel edges counted once
// per pair, matching the usual cyclomatic-complexity convention).
func (g *graph) edgeCount() int {
	n := 0
	for _, nd := range g.nodes {
		seen := make(map[int]bool, len(nd.succs))
		for _, s := range nd.succs {
			if !seen[s] {
				seen[s] = true
				n++
			}
		}
	}
	return n
}

// dominators computes the immediate-dominator array of the compacted
// graph with the Cooper-Harvey-Kennedy iterative algorithm. Nodes are
// already numbered in reverse postorder, so after the first sweep every
// node's stored idom is strictly smaller than the node itself (its DFS
// tree parent precedes it), which keeps intersect finite. idom[0] == 0:
// the entry dominates itself.
func dominators(g *graph) []int {
	n := len(g.nodes)
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[0] = 0
	for changed := true; changed; {
		changed = false
		for b := 1; b < n; b++ {
			newIdom := -1
			for _, p := range g.nodes[b].preds {
				if idom[p] < 0 {
					continue // not yet processed (back-edge pred, first sweep)
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(idom, p, newIdom)
				}
			}
			if newIdom >= 0 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// intersect walks both nodes up the dominator tree to their common
// ancestor. Larger RPO numbers are deeper, so walking always moves the
// larger index first.
func intersect(idom []int, a, b int) int {
	for a != b {
		for a > b {
			a = idom[a]
		}
		for b > a {
			b = idom[b]
		}
	}
	return a
}

// dominates reports whether a dominates b. Every node dominates itself.
func dominates(idom []int, a, b int) bool {
	for {
		if a == b {
			return true
		}
		if b == 0 {
			return false
		}
		b = idom[b]
	}
}

// loopInfo is one natural loop: its header node and the body set (the
// header is a member of its own body).
type loopInfo struct {
	header int
	body   map[int]bool
}

// naturalLoops finds the back edges (u -> h where h dominates u) of the
// compacted graph and collects their natural-loop bodies, merging back
// edges that share a header into one loop. Loops are returned in header
// order; backEdges counts raw back edges before merging.
func naturalLoops(g *graph, idom []int) (loops []loopInfo, backEdges int) {
	byHeader := make(map[int]*loopInfo)
	var headers []int
	for u, nd := range g.nodes {
		for _, h := range nd.succs {
			if !dominates(idom, h, u) {
				continue
			}
			backEdges++
			li := byHeader[h]
			if li == nil {
				li = &loopInfo{header: h, body: map[int]bool{h: true}}
				byHeader[h] = li
				headers = append(headers, h)
			}
			// Walk predecessors back from the latch; the header caps
			// the walk because it is already in the body.
			stack := []int{u}
			for len(stack) > 0 {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if li.body[n] {
					continue
				}
				li.body[n] = true
				stack = append(stack, g.nodes[n].preds...)
			}
		}
	}
	sort.Ints(headers)
	for _, h := range headers {
		loops = append(loops, *byHeader[h])
	}
	return loops, backEdges
}

// loopDepths returns, per loop, its nesting depth (1 = outermost): the
// number of loops whose body contains that loop's header. maxDepth is
// the deepest nesting over all nodes.
func loopDepths(loops []loopInfo) (depths []int, maxDepth int) {
	depths = make([]int, len(loops))
	for i, li := range loops {
		d := 0
		for _, other := range loops {
			if other.body[li.header] {
				d++
			}
		}
		depths[i] = d
		if d > maxDepth {
			maxDepth = d
		}
	}
	return depths, maxDepth
}

// shaper renders alpha-normalized expression-shape grams, the semantic
// cousin of the fingerprint's canonical expression text. Every
// user-chosen name is erased to its binding class — locals/params to
// "v", unit globals to "g", unit functions to "f" — while library
// identifiers (cin, printf, sqrt, ...) pass through with their std::
// prefix stripped, so idiom survives but renaming cannot move a single
// gram. Literals reduce to their kind ("lit:int"), member selectors
// keep their name (push_back vs emplace_back is style), and
// statement-context ++/--/+=1/-=1 all normalize to one increment form,
// matching what the pre/post-increment rewriters can reach.
type shaper struct {
	locals  map[string]bool
	globals map[string]bool
	funcs   map[string]bool
}

func newShaper(fn *cppast.FuncDecl, globals, funcs map[string]bool) *shaper {
	s := &shaper{locals: make(map[string]bool), globals: globals, funcs: funcs}
	for _, p := range fn.Params {
		if p.Name != "" {
			s.locals[p.Name] = true
		}
	}
	cppast.Walk(fn.Body, func(n cppast.Node, _ int) bool {
		if vd, ok := n.(*cppast.VarDecl); ok {
			for _, d := range vd.Names {
				s.locals[d.Name] = true
			}
		}
		return true
	})
	return s
}

// label returns the one-token shape label of an expression node.
func (s *shaper) label(e cppast.Node) string {
	switch n := e.(type) {
	case nil:
		return "?"
	case *cppast.Ident:
		name := strings.TrimPrefix(n.Name, "std::")
		switch {
		case s.locals[name]:
			return "v"
		case s.funcs[name]:
			return "f"
		case s.globals[name]:
			return "g"
		default:
			return name // library identifier: idiom, keep it
		}
	case *cppast.Lit:
		return "lit:" + n.LitKind
	case *cppast.ParenExpr:
		return s.label(n.X) // parentheses are transparent
	case *cppast.UnaryExpr:
		return "u" + n.Op // pre/post distinction erased: rewriters flip it
	case *cppast.BinaryExpr:
		return n.Op
	case *cppast.TernaryExpr:
		return "?:"
	case *cppast.CallExpr:
		return "call:" + s.label(n.Fun)
	case *cppast.IndexExpr:
		return "idx"
	case *cppast.MemberExpr:
		return "." + n.Sel // arrow vs dot erased, selector kept
	case *cppast.CastExpr:
		return "cast"
	default:
		return "?"
	}
}

// gram emits the one-level shape gram of e (parent label plus direct
// child labels) into out, then recurses into the children. stmtCtx
// marks value-discarding position, where x++ / ++x / x += 1 / x -= 1
// all collapse to the same increment gram.
func (s *shaper) gram(e cppast.Node, stmtCtx bool, out map[string]int) {
	switch n := e.(type) {
	case nil, *cppast.Ident, *cppast.Lit:
		// Leaves carry no shape of their own.
	case *cppast.ParenExpr:
		s.gram(n.X, stmtCtx, out)
	case *cppast.UnaryExpr:
		if stmtCtx && (n.Op == "++" || n.Op == "--") {
			op := "+="
			if n.Op == "--" {
				op = "-="
			}
			out["("+op+" "+s.label(n.X)+" lit:int)"]++
			s.gram(n.X, false, out)
			return
		}
		out["(u"+n.Op+" "+s.label(n.X)+")"]++
		s.gram(n.X, false, out)
	case *cppast.BinaryExpr:
		if stmtCtx && (n.Op == "+=" || n.Op == "-=") {
			if lit, ok := n.R.(*cppast.Lit); ok && lit.LitKind == "int" && lit.Text == "1" {
				out["("+n.Op+" "+s.label(n.L)+" lit:int)"]++
				s.gram(n.L, false, out)
				return
			}
		}
		out["("+n.Op+" "+s.label(n.L)+" "+s.label(n.R)+")"]++
		s.gram(n.L, false, out)
		s.gram(n.R, false, out)
	case *cppast.TernaryExpr:
		out["(?: "+s.label(n.Cond)+" "+s.label(n.Then)+" "+s.label(n.Else)+")"]++
		s.gram(n.Cond, false, out)
		s.gram(n.Then, false, out)
		s.gram(n.Else, false, out)
	case *cppast.CallExpr:
		parts := make([]string, 0, len(n.Args)+1)
		parts = append(parts, s.label(n))
		for _, a := range n.Args {
			parts = append(parts, s.label(a))
		}
		out["("+strings.Join(parts, " ")+")"]++
		for _, a := range n.Args {
			s.gram(a, false, out)
		}
	case *cppast.IndexExpr:
		out["(idx "+s.label(n.X)+" "+s.label(n.Index)+")"]++
		s.gram(n.X, false, out)
		s.gram(n.Index, false, out)
	case *cppast.MemberExpr:
		out["(."+n.Sel+" "+s.label(n.X)+")"]++
		s.gram(n.X, false, out)
	case *cppast.CastExpr:
		out["(cast "+s.label(n.X)+")"]++
		s.gram(n.X, false, out)
	}
}

// stmtGrams emits grams for one simple (non-control-flow) statement.
func (s *shaper) stmtGrams(st cppast.Node, out map[string]int) {
	switch n := st.(type) {
	case *cppast.VarDecl:
		for _, d := range n.Names {
			for _, dim := range d.ArrayLen {
				s.gram(dim, false, out)
			}
			if d.Init != nil {
				out["(decl v "+s.label(d.Init)+")"]++
				s.gram(d.Init, false, out)
			}
		}
	case *cppast.ExprStmt:
		s.gram(n.X, true, out)
	case *cppast.Return:
		if n.Value != nil {
			out["(ret "+s.label(n.Value)+")"]++
			s.gram(n.Value, false, out)
		}
	}
}

// callGraph is the file-level call structure between the unit's own
// defined functions. Library calls are out of scope here — they show up
// in the expression-shape grams instead.
type callGraph struct {
	// callees maps each defined function to its distinct intra-file
	// callees, sorted.
	callees map[string][]string
	// fanIn counts distinct intra-file callers per function.
	fanIn map[string]int
	// recursive marks functions on a call cycle (including self-calls).
	recursive map[string]bool
	// edges is the total number of distinct caller->callee pairs.
	edges int
}

// buildCallGraph walks every function body collecting calls that
// resolve to functions defined (with a body) in the same unit.
func buildCallGraph(tu *cppast.TranslationUnit) *callGraph {
	defined := make(map[string]bool)
	var names []string // source order
	for _, f := range tu.Functions() {
		if f.Body != nil && !defined[f.Name] {
			defined[f.Name] = true
			names = append(names, f.Name)
		}
	}
	cg := &callGraph{
		callees:   make(map[string][]string, len(names)),
		fanIn:     make(map[string]int, len(names)),
		recursive: make(map[string]bool, len(names)),
	}
	for _, f := range tu.Functions() {
		if f.Body == nil || cg.callees[f.Name] != nil {
			continue
		}
		set := make(map[string]bool)
		cppast.Walk(f.Body, func(n cppast.Node, _ int) bool {
			call, ok := n.(*cppast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*cppast.Ident); ok {
				name := strings.TrimPrefix(id.Name, "std::")
				if defined[name] {
					set[name] = true
				}
			}
			return true
		})
		out := make([]string, 0, len(set))
		for callee := range set {
			out = append(out, callee)
		}
		sort.Strings(out)
		cg.callees[f.Name] = out
		cg.edges += len(out)
		for _, callee := range out {
			cg.fanIn[callee]++
		}
	}
	// A function is recursive when it can reach itself through at least
	// one call edge. The graphs are tiny (a handful of helpers), so a
	// DFS per function is plenty.
	for _, name := range names {
		cg.recursive[name] = reaches(cg.callees, name, name)
	}
	return cg
}

// reaches reports whether target is reachable from any callee of from
// (a self-edge counts immediately).
func reaches(callees map[string][]string, from, target string) bool {
	seen := make(map[string]bool)
	stack := append([]string(nil), callees[from]...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == target {
			return true
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		stack = append(stack, callees[n]...)
	}
	return false
}
