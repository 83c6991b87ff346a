package semstats

import (
	"context"
	"strings"

	"gptattr/internal/cppast"
	"gptattr/internal/cppcheck"
	"gptattr/internal/fault"
	"gptattr/internal/reuse"
)

// Scratch is the reusable workspace behind AnalyzeContext: the
// cppcheck workspace (CFG storage, compactor, dataflow slabs), loop
// and call-graph state, shaper intern tables, and the
// FileStats/FuncStats output storage itself. One Scratch analyzes one
// unit at a time; steady state it allocates nothing (pinned in internal/stylometry's
// extraction alloc test, which runs the full pipeline through here).
//
// The *FileStats returned by Scratch.AnalyzeContext is owned by the
// scratch and valid only until its next AnalyzeContext call. The
// package-level Analyze/AnalyzeContext wrappers use a fresh Scratch
// per call and therefore hand out independent results.
type Scratch struct {
	cc     cppcheck.Scratch
	emark  []int32 // edge-dedup epochs
	eepoch int32
	loops  loopScratch
	sh     shaperScratch
	cg     cgScratch

	fnList    []*cppast.FuncDecl
	funcs     map[string]*cppast.FuncDecl
	globals   map[string]bool
	funcNames map[string]bool
	seen      map[string]bool

	statPool []*FuncStats // [:sused] this unit; Grams slices persist
	sused    int
	sdirty   int // the most stats one unit took since the last Release
	fs       FileStats
}

// NewScratch returns an empty analysis workspace.
func NewScratch() *Scratch {
	s := &Scratch{
		funcs:     make(map[string]*cppast.FuncDecl),
		globals:   make(map[string]bool),
		funcNames: make(map[string]bool),
		seen:      make(map[string]bool),
	}
	s.sh.init()
	s.cg.init()
	return s
}

// Release drops references into the last-analyzed unit (AST nodes,
// name strings) so a pooled Scratch does not pin a request's source
// between uses. Like cppcheck.Scratch.Release, it visits only what was
// written since the last Release and drops what outgrew the reuse
// caps (see package reuse); the rest keep their capacity.
func (s *Scratch) Release() {
	s.cc.Release()
	s.resetUnit()
	s.cg.release()
	s.sh.release()
	for _, st := range s.statPool[:s.sdirty] {
		*st = FuncStats{Grams: reuse.Slab(st.Grams)}
	}
	s.statPool = reuse.Trim(s.statPool)
	s.sused, s.sdirty = 0, 0
	s.fs = FileStats{Funcs: reuse.Trim(s.fs.Funcs)[:0]}
	s.emark = reuse.Trim(s.emark)
	s.loops.release()
}

// resetUnit empties the unit-level tables: the function list and the
// name maps.
func (s *Scratch) resetUnit() {
	s.fnList = reuse.Slab(s.fnList)
	s.funcs = reuse.Map(s.funcs)
	s.globals = reuse.Map(s.globals)
	s.funcNames = reuse.Map(s.funcNames)
	s.seen = reuse.Map(s.seen)
}

func (s *Scratch) takeStats() *FuncStats {
	if s.sused == len(s.statPool) {
		s.statPool = append(s.statPool, &FuncStats{})
	}
	s.sused++
	s.sdirty = max(s.sdirty, s.sused)
	return s.statPool[s.sused-1]
}

// AnalyzeContext runs the full pass pipeline over one unit, recycling
// the scratch's storage. Results are bit-identical to the package
// AnalyzeContext (pinned by TestScratchMatchesReference); the returned
// FileStats is valid until the next call on this scratch.
func (s *Scratch) AnalyzeContext(ctx context.Context, tu *cppast.TranslationUnit) (*FileStats, error) {
	s.resetUnit()
	for _, d := range tu.Decls {
		switch n := d.(type) {
		case *cppast.FuncDecl:
			s.fnList = append(s.fnList, n)
			if n.Body != nil {
				s.funcs[n.Name] = n
			}
		case *cppast.VarDecl:
			for _, dd := range n.Names {
				s.globals[dd.Name] = true
			}
		}
	}
	for name := range s.funcs {
		s.funcNames[name] = true
	}
	s.cg.build(s.fnList)

	out := &s.fs
	*out = FileStats{Funcs: s.fs.Funcs[:0], CallEdges: s.cg.edges}
	s.sused = 0
	for _, f := range s.fnList {
		if f.Body == nil || s.seen[f.Name] {
			continue
		}
		// Pass boundary: an injected latency storm sleeps here (waking
		// early if the budget expires), then the budget itself is
		// checked before the next function's passes run.
		if err := fault.HitContext(ctx, PointAnalyze); err != nil && ctx.Err() != nil {
			return out, ctx.Err()
		}
		if err := ctx.Err(); err != nil {
			return out, err
		}
		s.seen[f.Name] = true
		st := s.takeStats()
		s.funcStats(f, st)
		fi := s.cg.idx[f.Name]
		st.FanOut = len(s.cg.callees[fi])
		st.FanIn = int(s.cg.fanIn[fi])
		st.Recursive = s.cg.recursive[fi]
		if st.Recursive {
			out.RecursiveFuncs++
		}
		out.Funcs = append(out.Funcs, st)
	}
	return out, nil
}

// funcStats runs every per-function pass and assembles st. Call-graph
// fields (FanIn/FanOut/Recursive) are left zero; AnalyzeContext fills
// them from the file-level pass.
func (s *Scratch) funcStats(fn *cppast.FuncDecl, st *FuncStats) {
	*st = FuncStats{Name: fn.Name, Grams: reuse.Slab(st.Grams)}
	g := s.cc.Build(fn)
	if g == nil {
		return
	}
	st.Unsupported = g.Unsupported

	// CFG shape.
	nodes := s.cc.Compact(g)
	st.Blocks = len(nodes)
	st.Edges = s.edgeCount(nodes)
	succTotal := 0
	for _, nd := range nodes {
		if len(nd.Succs) >= 2 {
			st.Branches++
		}
		succTotal += len(nd.Succs)
	}
	if st.Blocks > 0 {
		st.BranchFactor = float64(succTotal) / float64(st.Blocks)
	}
	st.Cyclomatic = st.Edges - st.Blocks + 2

	// Loop nesting.
	s.loops.fill(nodes, st)

	// Def-use chains and live-range widths (on the raw CFG: the
	// dataflow passes own it), straight to their aggregate form.
	sum := s.cc.Summary(g, s.funcs)
	st.Chains = sum.Chains
	st.ChainUses = sum.ChainUses
	st.MaxChainLen = sum.MaxChainLen
	st.ChainsAtLen = sum.ChainsAtLen
	if st.Chains > 0 {
		st.MeanChainLen = float64(st.ChainUses) / float64(st.Chains)
	}
	st.Vars = sum.Vars
	st.LiveWidthSum = sum.LiveWidthSum
	st.MaxLiveWidth = sum.MaxLiveWidth
	if st.Vars > 0 {
		st.MeanLiveWidth = float64(st.LiveWidthSum) / float64(st.Vars)
	}

	// Expression shapes, walked over the raw blocks in build order.
	s.sh.begin(fn, s.globals, s.funcNames, st.Grams)
	for _, b := range g.Blocks {
		for _, stm := range b.Stmts {
			s.sh.stmtGrams(stm)
		}
		if b.Cond != nil {
			s.sh.gram(b.Cond, false)
		}
	}
	st.Grams = s.sh.grams
}

// --- shaper scratch ---

// maxGramIntern caps the gram intern table so adversarial inputs
// cannot grow it without bound; past the cap gram strings fall back to
// per-occurrence allocation.
const maxGramIntern = 1 << 16

// shaperScratch renders alpha-normalized expression-shape grams, the
// semantic cousin of the fingerprint's canonical expression text.
// Every user-chosen name is erased to its binding class — locals/params
// to "v", unit globals to "g", unit functions to "f" — while library
// identifiers (cin, printf, sqrt, ...) pass through with their std::
// prefix stripped, so idiom survives but renaming cannot move a single
// gram. Literals reduce to their kind ("lit:int"), member selectors
// keep their name (push_back vs emplace_back is style), and
// statement-context ++/--/+=1/-=1 all normalize to one increment form,
// matching what the pre/post-increment rewriters can reach.
//
// The local set is reused across functions, and gram strings are
// rendered into a byte buffer and interned, so steady-state gram
// emission performs no allocation and repeated grams share one string.
// Counts go into the function's Grams list in order of first
// occurrence, indexed through idx. The map-based reference shaper in
// the package tests pins the output.
type shaperScratch struct {
	locals  map[string]bool
	globals map[string]bool
	funcs   map[string]bool
	buf     []byte
	intern  map[string]string
	idx     map[string]int32 // gram -> index into grams, this function
	grams   []GramCount
	walk    func(cppast.Node, int) bool
}

func (ss *shaperScratch) init() {
	ss.locals = make(map[string]bool)
	ss.intern = make(map[string]string)
	ss.idx = make(map[string]int32)
	ss.walk = func(n cppast.Node, _ int) bool {
		if vd, ok := n.(*cppast.VarDecl); ok {
			for _, d := range vd.Names {
				ss.locals[d.Name] = true
			}
		}
		return true
	}
}

func (ss *shaperScratch) release() {
	ss.locals = reuse.Map(ss.locals)
	ss.idx = reuse.Map(ss.idx)
	ss.buf = reuse.Trim(ss.buf)
	ss.globals, ss.funcs, ss.grams = nil, nil, nil
	// The intern table holds alpha-normalized shapes, not user text;
	// keeping it across requests is the point.
}

// begin prepares the shaper for fn, counting its grams into grams
// (emptied first; its capacity is reused).
func (ss *shaperScratch) begin(fn *cppast.FuncDecl, globals, funcs map[string]bool, grams []GramCount) {
	ss.locals = reuse.Map(ss.locals)
	ss.idx = reuse.Map(ss.idx)
	ss.globals, ss.funcs, ss.grams = globals, funcs, grams[:0]
	for _, p := range fn.Params {
		if p.Name != "" {
			ss.locals[p.Name] = true
		}
	}
	cppast.Walk(fn.Body, ss.walk)
}

// bump counts the gram currently in ss.buf, interning its string.
func (ss *shaperScratch) bump() {
	key, ok := ss.intern[string(ss.buf)]
	if !ok {
		key = string(ss.buf)
		if len(ss.intern) < maxGramIntern {
			ss.intern[key] = key
		}
	}
	if i, ok := ss.idx[key]; ok {
		ss.grams[i].N++
		return
	}
	ss.idx[key] = int32(len(ss.grams))
	ss.grams = append(ss.grams, GramCount{Gram: key, N: 1})
}

// appendLabel appends the one-token shape label of e.
func (ss *shaperScratch) appendLabel(b []byte, e cppast.Node) []byte {
	switch n := e.(type) {
	case nil:
		return append(b, '?')
	case *cppast.Ident:
		name := strings.TrimPrefix(n.Name, "std::")
		switch {
		case ss.locals[name]:
			return append(b, 'v')
		case ss.funcs[name]:
			return append(b, 'f')
		case ss.globals[name]:
			return append(b, 'g')
		default:
			return append(b, name...) // library identifier: idiom, keep it
		}
	case *cppast.Lit:
		b = append(b, "lit:"...)
		return append(b, n.LitKind...)
	case *cppast.ParenExpr:
		return ss.appendLabel(b, n.X) // parentheses are transparent
	case *cppast.UnaryExpr:
		b = append(b, 'u') // pre/post distinction erased: rewriters flip it
		return append(b, n.Op...)
	case *cppast.BinaryExpr:
		return append(b, n.Op...)
	case *cppast.TernaryExpr:
		return append(b, "?:"...)
	case *cppast.CallExpr:
		b = append(b, "call:"...)
		return ss.appendLabel(b, n.Fun)
	case *cppast.IndexExpr:
		return append(b, "idx"...)
	case *cppast.MemberExpr:
		b = append(b, '.')
		return append(b, n.Sel...)
	case *cppast.CastExpr:
		return append(b, "cast"...)
	default:
		return append(b, '?')
	}
}

// gram counts the one-level shape gram of e (parent label plus direct
// child labels), then recurses into the children. stmtCtx
// marks value-discarding position, where x++ / ++x / x += 1 / x -= 1
// all collapse to the same increment gram. Grams are built in the
// byte buffer, never by string concatenation.
func (ss *shaperScratch) gram(e cppast.Node, stmtCtx bool) {
	switch n := e.(type) {
	case nil, *cppast.Ident, *cppast.Lit:
		// Leaves carry no shape of their own.
	case *cppast.ParenExpr:
		ss.gram(n.X, stmtCtx)
	case *cppast.UnaryExpr:
		if stmtCtx && (n.Op == "++" || n.Op == "--") {
			op := "+="
			if n.Op == "--" {
				op = "-="
			}
			ss.buf = append(ss.buf[:0], '(')
			ss.buf = append(ss.buf, op...)
			ss.buf = append(ss.buf, ' ')
			ss.buf = ss.appendLabel(ss.buf, n.X)
			ss.buf = append(ss.buf, " lit:int)"...)
			ss.bump()
			ss.gram(n.X, false)
			return
		}
		ss.buf = append(ss.buf[:0], "(u"...)
		ss.buf = append(ss.buf, n.Op...)
		ss.buf = append(ss.buf, ' ')
		ss.buf = ss.appendLabel(ss.buf, n.X)
		ss.buf = append(ss.buf, ')')
		ss.bump()
		ss.gram(n.X, false)
	case *cppast.BinaryExpr:
		if stmtCtx && (n.Op == "+=" || n.Op == "-=") {
			if lit, ok := n.R.(*cppast.Lit); ok && lit.LitKind == "int" && lit.Text == "1" {
				ss.buf = append(ss.buf[:0], '(')
				ss.buf = append(ss.buf, n.Op...)
				ss.buf = append(ss.buf, ' ')
				ss.buf = ss.appendLabel(ss.buf, n.L)
				ss.buf = append(ss.buf, " lit:int)"...)
				ss.bump()
				ss.gram(n.L, false)
				return
			}
		}
		ss.buf = append(ss.buf[:0], '(')
		ss.buf = append(ss.buf, n.Op...)
		ss.buf = append(ss.buf, ' ')
		ss.buf = ss.appendLabel(ss.buf, n.L)
		ss.buf = append(ss.buf, ' ')
		ss.buf = ss.appendLabel(ss.buf, n.R)
		ss.buf = append(ss.buf, ')')
		ss.bump()
		ss.gram(n.L, false)
		ss.gram(n.R, false)
	case *cppast.TernaryExpr:
		ss.buf = append(ss.buf[:0], "(?: "...)
		ss.buf = ss.appendLabel(ss.buf, n.Cond)
		ss.buf = append(ss.buf, ' ')
		ss.buf = ss.appendLabel(ss.buf, n.Then)
		ss.buf = append(ss.buf, ' ')
		ss.buf = ss.appendLabel(ss.buf, n.Else)
		ss.buf = append(ss.buf, ')')
		ss.bump()
		ss.gram(n.Cond, false)
		ss.gram(n.Then, false)
		ss.gram(n.Else, false)
	case *cppast.CallExpr:
		ss.buf = append(ss.buf[:0], '(')
		ss.buf = ss.appendLabel(ss.buf, n)
		for _, a := range n.Args {
			ss.buf = append(ss.buf, ' ')
			ss.buf = ss.appendLabel(ss.buf, a)
		}
		ss.buf = append(ss.buf, ')')
		ss.bump()
		for _, a := range n.Args {
			ss.gram(a, false)
		}
	case *cppast.IndexExpr:
		ss.buf = append(ss.buf[:0], "(idx "...)
		ss.buf = ss.appendLabel(ss.buf, n.X)
		ss.buf = append(ss.buf, ' ')
		ss.buf = ss.appendLabel(ss.buf, n.Index)
		ss.buf = append(ss.buf, ')')
		ss.bump()
		ss.gram(n.X, false)
		ss.gram(n.Index, false)
	case *cppast.MemberExpr:
		ss.buf = append(ss.buf[:0], "(."...)
		ss.buf = append(ss.buf, n.Sel...)
		ss.buf = append(ss.buf, ' ')
		ss.buf = ss.appendLabel(ss.buf, n.X)
		ss.buf = append(ss.buf, ')')
		ss.bump()
		ss.gram(n.X, false)
	case *cppast.CastExpr:
		ss.buf = append(ss.buf[:0], "(cast "...)
		ss.buf = ss.appendLabel(ss.buf, n.X)
		ss.buf = append(ss.buf, ')')
		ss.bump()
		ss.gram(n.X, false)
	}
}

// stmtGrams emits grams for one simple (non-control-flow) statement.
func (ss *shaperScratch) stmtGrams(st cppast.Node) {
	switch n := st.(type) {
	case *cppast.VarDecl:
		for _, d := range n.Names {
			for _, dim := range d.ArrayLen {
				ss.gram(dim, false)
			}
			if d.Init != nil {
				ss.buf = append(ss.buf[:0], "(decl v "...)
				ss.buf = ss.appendLabel(ss.buf, d.Init)
				ss.buf = append(ss.buf, ')')
				ss.bump()
				ss.gram(d.Init, false)
			}
		}
	case *cppast.ExprStmt:
		ss.gram(n.X, true)
	case *cppast.Return:
		if n.Value != nil {
			ss.buf = append(ss.buf[:0], "(ret "...)
			ss.buf = ss.appendLabel(ss.buf, n.Value)
			ss.buf = append(ss.buf, ')')
			ss.bump()
			ss.gram(n.Value, false)
		}
	}
}

// --- call-graph scratch ---

// cgScratch is the file-level call graph between the unit's own
// defined functions, over index-addressed storage. Library calls are
// out of scope here — they show up in the expression-shape grams
// instead. Defined functions get dense indices, callee sets
// deduplicate through epoch marks, and the recursion DFS reuses one
// stack. Callee lists are in
// discovery order rather than sorted — every consumer (fan-out counts,
// fan-in totals, reachability) is order-independent.
type cgScratch struct {
	idx       map[string]int32
	n         int
	callees   [][]int32
	fanIn     []int32
	recursive []bool
	built     []bool
	edges     int

	cmark  []int32 // callee dedup epochs
	cepoch int32
	smark  []int32 // reaches-DFS epochs
	sepoch int32
	stack  []int32
	cur    int32
	walk   func(cppast.Node, int) bool
}

func (c *cgScratch) init() {
	c.idx = make(map[string]int32)
	c.walk = func(n cppast.Node, _ int) bool {
		call, ok := n.(*cppast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*cppast.Ident); ok {
			name := strings.TrimPrefix(id.Name, "std::")
			if j, ok := c.idx[name]; ok {
				if c.cmark[j] != c.cepoch {
					c.cmark[j] = c.cepoch
					c.callees[c.cur] = append(c.callees[c.cur], j)
				}
			}
		}
		return true
	}
}

// release resets the callee rows the last build made, and drops every
// per-function slab once a unit's function count outgrew
// reuse.MaxSlots.
func (c *cgScratch) release() {
	c.idx = reuse.Map(c.idx)
	for i := range c.callees[:c.n] {
		c.callees[i] = reuse.Trim(c.callees[i])[:0]
	}
	if len(c.callees) > reuse.MaxSlots {
		c.callees, c.fanIn, c.recursive, c.built, c.cmark, c.smark = nil, nil, nil, nil, nil, nil
	}
	c.stack = reuse.Trim(c.stack)
	c.n = 0
}

func (c *cgScratch) build(fns []*cppast.FuncDecl) {
	c.idx = reuse.Map(c.idx)
	c.n = 0
	for _, f := range fns {
		if f.Body == nil {
			continue
		}
		if _, ok := c.idx[f.Name]; !ok {
			c.idx[f.Name] = int32(c.n)
			c.n++
		}
	}
	c.fanIn = resizeI32(c.fanIn, c.n)
	c.recursive = resizeBool(c.recursive, c.n)
	c.built = resizeBool(c.built, c.n)
	for len(c.callees) < c.n {
		c.callees = append(c.callees, nil)
	}
	c.cmark = resizeI32(c.cmark, c.n)
	c.smark = resizeI32(c.smark, c.n)
	c.edges = 0
	for _, f := range fns {
		if f.Body == nil {
			continue
		}
		i := c.idx[f.Name]
		if c.built[i] {
			continue
		}
		c.built[i] = true
		c.cur = i
		c.cepoch++
		c.callees[i] = c.callees[i][:0]
		cppast.Walk(f.Body, c.walk)
		c.edges += len(c.callees[i])
		for _, j := range c.callees[i] {
			c.fanIn[j]++
		}
	}
	for i := 0; i < c.n; i++ {
		c.recursive[i] = c.reaches(int32(i), int32(i))
	}
}

// reaches reports whether target is reachable from any callee of from
// (a self-edge counts immediately).
func (c *cgScratch) reaches(from, target int32) bool {
	c.sepoch++
	c.stack = append(c.stack[:0], c.callees[from]...)
	for len(c.stack) > 0 {
		n := c.stack[len(c.stack)-1]
		c.stack = c.stack[:len(c.stack)-1]
		if n == target {
			return true
		}
		if c.smark[n] == c.sepoch {
			continue
		}
		c.smark[n] = c.sepoch
		c.stack = append(c.stack, c.callees[n]...)
	}
	return false
}
