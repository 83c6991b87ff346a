package cppcheck

import (
	"math/bits"
	"strings"

	"gptattr/internal/cppast"
)

// VarInfo describes one function-local variable (or parameter) as the
// dataflow analyses see it.
type VarInfo struct {
	Name     string
	Param    bool
	DeclLine int
	// Scalar reports an int/float/char-like value; aggregates (arrays,
	// vectors, strings — all well-defined when default-constructed in
	// C++) are excluded from the uninitialized-read analysis.
	Scalar bool
	// Escaped reports the address was taken (scanf targets, & args,
	// reference-parameter bindings): writes can happen through the
	// alias, so the dead-store and unused-decl rules skip the variable.
	Escaped bool
	// MultiDecl reports more than one declaration site for the name
	// (shadowing). The flat per-function symbol model cannot track
	// scopes precisely, so such names are skipped by the value rules.
	MultiDecl bool
	// Uninit reports a declaration without an initializer.
	Uninit bool
}

// evKind discriminates dataflow events.
type evKind int8

const (
	evUse evKind = iota
	evDef
)

// event is one ordered def or use of a local variable within a block.
// Variables are referenced by their index into funcAnalysis.vars; the
// flat event stream is block-major (see eventsOf), so the whole
// function's dataflow facts live in two reusable slabs instead of a
// map of per-block slices.
type event struct {
	vid  int32
	line int32
	kind evKind
	// def metadata
	decl  bool // definition comes from a declarator
	plain bool // simple `=` store: a dead-store candidate
}

// funcAnalysis holds the per-function dataflow state shared by the
// diagnostic rules, def-use chain construction, and the semstats
// summary path. Every slab is reusable: init() recycles the previous
// function's storage, so a pooled DataflowScratch analyzes function
// after function without allocating.
type funcAnalysis struct {
	g     *CFG
	funcs map[string]*cppast.FuncDecl // unit-level, for ref params

	varID  map[string]int32 // name -> index into vars (cleared per init)
	vars   []VarInfo        // declaration order
	events []event          // block-major flat event stream
	evOff  []int32          // len(g.Blocks)+1 offsets into events

	r    reaching
	live liveness

	// Reverse postorder of the blocks reachable from entry, and their
	// marks by block ID (rpoScratch fills both).
	rpoSeen []bool
	rpo     []*Block

	// Summary scratch.
	useCnt []int32
	counts []int32
	cur    []uint64
}

// assignOps maps C++ assignment operators to whether they read the
// target before writing it (compound assignments do, plain `=` not).
var assignOps = map[string]bool{
	"=": false, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true,
}

func aggregateType(typ string) bool {
	t := strings.ToLower(typ)
	return strings.Contains(t, "vector") || strings.Contains(t, "string") ||
		strings.Contains(t, "map") || strings.Contains(t, "set") ||
		strings.Contains(t, "pair") || strings.Contains(t, "queue") ||
		strings.Contains(t, "stack")
}

// newFuncAnalysis collects declarations and the per-block event stream
// for fn's CFG into fresh storage (cold path; hot paths reuse a
// DataflowScratch).
func newFuncAnalysis(g *CFG, funcs map[string]*cppast.FuncDecl) *funcAnalysis {
	fa := &funcAnalysis{}
	fa.init(g, funcs)
	return fa
}

// init recycles fa's slabs for a new function.
func (fa *funcAnalysis) init(g *CFG, funcs map[string]*cppast.FuncDecl) {
	fa.g = g
	fa.funcs = funcs
	if fa.varID == nil {
		fa.varID = make(map[string]int32)
	} else {
		clear(fa.varID)
	}
	fa.vars = fa.vars[:0]
	fa.events = fa.events[:0]
	fa.evOff = fa.evOff[:0]

	for _, p := range g.Fn.Params {
		if p.Name == "" {
			continue
		}
		fa.declare(p.Name, p.Line(), true, !aggregateType(p.Type), false)
		if p.Ref {
			fa.escape(p.Name)
		}
	}
	// Declarations anywhere in the body (flat scope model).
	cppast.Walk(g.Fn.Body, func(n cppast.Node, _ int) bool {
		if vd, ok := n.(*cppast.VarDecl); ok {
			scalar := !aggregateType(vd.Type)
			for _, d := range vd.Names {
				fa.declare(d.Name, vd.Line(), false, scalar && len(d.ArrayLen) == 0, d.Init == nil)
			}
		}
		return true
	})
	for _, b := range g.Blocks {
		fa.evOff = append(fa.evOff, int32(len(fa.events)))
		for _, s := range b.Stmts {
			fa.stmtEvents(s)
		}
		if b.Cond != nil {
			fa.exprEvents(b.Cond)
		}
	}
	fa.evOff = append(fa.evOff, int32(len(fa.events)))
}

// eventsOf returns the events of one block. Block IDs index g.Blocks
// (the builder numbers blocks in append order), which is what lets the
// flat stream replace the per-block map.
func (fa *funcAnalysis) eventsOf(b *Block) []event {
	return fa.events[fa.evOff[b.ID]:fa.evOff[b.ID+1]]
}

func (fa *funcAnalysis) declare(name string, line int, param, scalar, uninit bool) {
	if id, ok := fa.varID[name]; ok {
		v := &fa.vars[id]
		v.MultiDecl = true
		v.Uninit = v.Uninit || uninit
		return
	}
	fa.varID[name] = int32(len(fa.vars))
	fa.vars = append(fa.vars, VarInfo{Name: name, Param: param, DeclLine: line, Scalar: scalar, Uninit: uninit})
}

func (fa *funcAnalysis) use(name string, line int) {
	if id, ok := fa.varID[name]; ok {
		fa.events = append(fa.events, event{kind: evUse, vid: id, line: int32(line)})
	}
}

func (fa *funcAnalysis) def(name string, line int, decl, plain bool) {
	if id, ok := fa.varID[name]; ok {
		fa.events = append(fa.events, event{kind: evDef, vid: id, line: int32(line), decl: decl, plain: plain})
	}
}

func (fa *funcAnalysis) escape(name string) {
	if id, ok := fa.varID[name]; ok {
		fa.vars[id].Escaped = true
	}
}

func (fa *funcAnalysis) stmtEvents(s cppast.Node) {
	switch n := s.(type) {
	case *cppast.VarDecl:
		for _, d := range n.Names {
			for _, dim := range d.ArrayLen {
				fa.exprEvents(dim)
			}
			if d.Init != nil {
				fa.exprEvents(d.Init)
				fa.def(d.Name, n.Line(), true, false)
			} else if len(d.ArrayLen) > 0 || aggregateType(n.Type) {
				// Default-constructed aggregates are defined.
				fa.def(d.Name, n.Line(), true, false)
			}
		}
	case *cppast.ExprStmt:
		fa.exprEvents(n.X)
	case *cppast.Return:
		if n.Value != nil {
			fa.exprEvents(n.Value)
		}
	}
}

// chainRoot returns the name of the leftmost identifier of a binary
// operator spine (cin >> a >> b has root "cin"), or "".
func chainRoot(e cppast.Node, op string) string {
	for {
		be, ok := e.(*cppast.BinaryExpr)
		if !ok || be.Op != op {
			break
		}
		e = be.L
	}
	if id, ok := e.(*cppast.Ident); ok {
		return strings.TrimPrefix(id.Name, "std::")
	}
	return ""
}

// exprEvents walks an expression emitting use/def events in evaluation
// order (uses of an assignment's RHS before the LHS def).
func (fa *funcAnalysis) exprEvents(e cppast.Node) {
	switch n := e.(type) {
	case nil:
	case *cppast.Ident:
		fa.use(strings.TrimPrefix(n.Name, "std::"), n.Line())
	case *cppast.Lit:
	case *cppast.ParenExpr:
		fa.exprEvents(n.X)
	case *cppast.BinaryExpr:
		if readsTarget, isAssign := assignOps[n.Op]; isAssign {
			fa.exprEvents(n.R)
			fa.assignTarget(n.L, readsTarget, n.Op == "=")
			return
		}
		if n.Op == ">>" && chainRoot(n, ">>") == "cin" {
			// cin >> a >> b: every extraction target is written.
			fa.exprEvents(n.L)
			fa.assignTarget(n.R, false, false)
			return
		}
		fa.exprEvents(n.L)
		fa.exprEvents(n.R)
	case *cppast.UnaryExpr:
		switch n.Op {
		case "++", "--":
			fa.assignTarget(n.X, true, false)
		case "&":
			// Address taken: assume read-write through the alias.
			if id, ok := n.X.(*cppast.Ident); ok {
				name := strings.TrimPrefix(id.Name, "std::")
				fa.use(name, id.Line())
				fa.def(name, id.Line(), false, false)
				fa.escape(name)
				return
			}
			fa.exprEvents(n.X)
		default:
			fa.exprEvents(n.X)
		}
	case *cppast.TernaryExpr:
		fa.exprEvents(n.Cond)
		fa.exprEvents(n.Then)
		fa.exprEvents(n.Else)
	case *cppast.CallExpr:
		fa.callEvents(n)
	case *cppast.IndexExpr:
		fa.exprEvents(n.X)
		fa.exprEvents(n.Index)
	case *cppast.MemberExpr:
		fa.exprEvents(n.X)
	case *cppast.CastExpr:
		fa.exprEvents(n.X)
	default:
		// Unknown expression shapes: no events (analysis already
		// degraded via CFG.Unsupported when they appear as statements).
	}
}

// assignTarget emits events for the written operand of an assignment,
// increment, or extraction. readsTarget adds a use before the def
// (compound assignments, ++/--).
func (fa *funcAnalysis) assignTarget(target cppast.Node, readsTarget, plain bool) {
	switch t := target.(type) {
	case *cppast.Ident:
		name := strings.TrimPrefix(t.Name, "std::")
		if readsTarget {
			fa.use(name, t.Line())
		}
		fa.def(name, t.Line(), false, plain)
	case *cppast.IndexExpr:
		// a[i] = x: the index is read, the aggregate is read+written
		// (element stores never kill the whole aggregate).
		fa.exprEvents(t.Index)
		if id, ok := t.X.(*cppast.Ident); ok {
			name := strings.TrimPrefix(id.Name, "std::")
			fa.use(name, id.Line())
			fa.def(name, id.Line(), false, false)
		} else {
			fa.exprEvents(t.X)
		}
	case *cppast.ParenExpr:
		fa.assignTarget(t.X, readsTarget, plain)
	default:
		fa.exprEvents(target)
	}
}

func (fa *funcAnalysis) callEvents(call *cppast.CallExpr) {
	// Method calls mutate their receiver (push_back, clear, ...); size
	// and friends only read, but read+write is the safe assumption.
	if m, ok := call.Fun.(*cppast.MemberExpr); ok {
		if id, ok := m.X.(*cppast.Ident); ok {
			name := strings.TrimPrefix(id.Name, "std::")
			fa.use(name, id.Line())
			fa.def(name, id.Line(), false, false)
		} else {
			fa.exprEvents(m.X)
		}
		for _, a := range call.Args {
			fa.exprEvents(a)
		}
		return
	}
	var callee *cppast.FuncDecl
	if id, ok := call.Fun.(*cppast.Ident); ok {
		callee = fa.funcs[strings.TrimPrefix(id.Name, "std::")]
	} else {
		fa.exprEvents(call.Fun)
	}
	for i, a := range call.Args {
		if callee != nil && i < len(callee.Params) && callee.Params[i].Ref {
			// Binding to a reference parameter: read+write, escaped.
			if id, ok := a.(*cppast.Ident); ok {
				name := strings.TrimPrefix(id.Name, "std::")
				fa.use(name, id.Line())
				fa.def(name, id.Line(), false, false)
				fa.escape(name)
				continue
			}
		}
		fa.exprEvents(a)
	}
}

// rpoScratch returns the blocks reachable from Entry in reverse
// postorder — the iteration order of the forward dataflow and the
// diagnostics — over reusable storage, leaving fa.rpoSeen marking
// exactly those blocks.
func (fa *funcAnalysis) rpoScratch() []*Block {
	n := len(fa.g.Blocks)
	if cap(fa.rpoSeen) < n {
		fa.rpoSeen = make([]bool, n)
	} else {
		fa.rpoSeen = fa.rpoSeen[:n]
		clear(fa.rpoSeen)
	}
	fa.rpo = fa.rpo[:0]
	fa.postorder(fa.g.Entry)
	for i, j := 0, len(fa.rpo)-1; i < j; i, j = i+1, j-1 {
		fa.rpo[i], fa.rpo[j] = fa.rpo[j], fa.rpo[i]
	}
	return fa.rpo
}

func (fa *funcAnalysis) postorder(b *Block) {
	if fa.rpoSeen[b.ID] {
		return
	}
	fa.rpoSeen[b.ID] = true
	for _, s := range b.Succs {
		fa.postorder(s)
	}
	fa.rpo = append(fa.rpo, b)
}

// --- bitset helpers ---

func setBit(s []uint64, i int32)      { s[i>>6] |= 1 << (uint(i) & 63) }
func clearBit(s []uint64, i int32)    { s[i>>6] &^= 1 << (uint(i) & 63) }
func hasBit(s []uint64, i int32) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// resizeU64 returns a zeroed []uint64 of length n, reusing capacity.
func resizeU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func resizeI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// --- reaching definitions ---

// reaching runs forward reaching-definitions over def-site bitsets.
// Def IDs number the real def events in block/event order; each
// uninit-declared non-parameter variable also gets a pseudo-def
// numbered after the real ones, reaching from Entry until killed.
type reaching struct {
	nReal int // real def sites
	nAll  int // real + pseudo
	w     int // bitset words per row

	siteEv   []int32   // site id -> flat event index
	eventDef []int32   // flat event index -> site id, -1 for uses
	defsOf   [][]int32 // vid -> site ids (real in stream order, pseudo last)
	uninitID []int32   // vid -> pseudo site id, -1 when none

	gen, kill, in, out []uint64 // len(g.Blocks) rows of w words
}

func (r *reaching) row(s []uint64, b *Block) []uint64 {
	return s[b.ID*r.w : (b.ID+1)*r.w]
}

func (fa *funcAnalysis) reachingDefs() *reaching {
	r := &fa.r
	nv := len(fa.vars)
	// Re-expose retained rows up to cap before growing: truncating and
	// re-appending nil would clobber their backing arrays and put the
	// steady state back on the allocator.
	if nv <= cap(r.defsOf) {
		r.defsOf = r.defsOf[:nv]
	} else {
		r.defsOf = append(r.defsOf[:cap(r.defsOf)], make([][]int32, nv-cap(r.defsOf))...)
	}
	for i := range r.defsOf {
		r.defsOf[i] = r.defsOf[i][:0]
	}
	r.siteEv = r.siteEv[:0]
	r.eventDef = resizeI32(r.eventDef, len(fa.events))
	for i, ev := range fa.events {
		r.eventDef[i] = -1
		if ev.kind == evDef {
			id := int32(len(r.siteEv))
			r.siteEv = append(r.siteEv, int32(i))
			r.eventDef[i] = id
			r.defsOf[ev.vid] = append(r.defsOf[ev.vid], id)
		}
	}
	r.nReal = len(r.siteEv)
	n := r.nReal
	r.uninitID = resizeI32(r.uninitID, nv)
	for vid := range fa.vars {
		r.uninitID[vid] = -1
		if v := &fa.vars[vid]; v.Uninit && !v.Param {
			r.uninitID[vid] = int32(n)
			r.defsOf[vid] = append(r.defsOf[vid], int32(n))
			n++
		}
	}
	r.nAll = n
	r.w = (n + 63) / 64
	if r.w == 0 {
		r.w = 1
	}
	total := len(fa.g.Blocks) * r.w
	r.gen = resizeU64(r.gen, total)
	r.kill = resizeU64(r.kill, total)
	r.in = resizeU64(r.in, total)
	r.out = resizeU64(r.out, total)

	// gen/kill per block: a def kills every def of its variable
	// (including the pseudo-def) and generates itself.
	for bi, b := range fa.g.Blocks {
		g := r.row(r.gen, b)
		k := r.row(r.kill, b)
		for ei := fa.evOff[bi]; ei < fa.evOff[bi+1]; ei++ {
			ev := fa.events[ei]
			if ev.kind != evDef {
				continue
			}
			for _, id := range r.defsOf[ev.vid] {
				clearBit(g, id)
				setBit(k, id)
			}
			id := r.eventDef[ei]
			setBit(g, id)
			clearBit(k, id)
		}
	}
	// Entry generates every uninit pseudo-def.
	entryOut := r.row(r.out, fa.g.Entry)
	for vid := range fa.vars {
		if id := r.uninitID[vid]; id >= 0 {
			setBit(entryOut, id)
		}
	}
	// Fixpoint over reachable blocks only: unreachable blocks keep
	// zero in-sets (their dead defs must not leak into live joins).
	rpo := fa.rpoScratch()
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == fa.g.Entry {
				continue
			}
			in := r.row(r.in, b)
			for i := range in {
				in[i] = 0
			}
			for _, p := range b.Preds {
				po := r.row(r.out, p)
				for i := range in {
					in[i] |= po[i]
				}
			}
			out := r.row(r.out, b)
			g := r.row(r.gen, b)
			k := r.row(r.kill, b)
			for i := range out {
				next := (in[i] &^ k[i]) | g[i]
				if next != out[i] {
					out[i] = next
					changed = true
				}
			}
		}
	}
	return r
}

// DefUseEntry is one def-use chain link: a definition site and the
// lines of the uses it reaches.
type DefUseEntry struct {
	Var      string
	DefLine  int
	UseLines []int
}

// DefUseChains computes, for every real definition of a local
// variable, the source lines of the uses that definition reaches.
// Entries follow block/event order; use lines are in discovery order.
func DefUseChains(g *CFG, funcs map[string]*cppast.FuncDecl) []DefUseEntry {
	fa := newFuncAnalysis(g, funcs)
	r := fa.reachingDefs()
	uses := make([][]int, r.nReal)
	cur := make([]uint64, r.w)
	fa.scanChains(r, cur, func(site int32, line int32) {
		uses[site] = append(uses[site], int(line))
	})
	var out []DefUseEntry
	for id := 0; id < r.nReal; id++ {
		ev := fa.events[r.siteEv[id]]
		out = append(out, DefUseEntry{Var: fa.vars[ev.vid].Name, DefLine: int(ev.line), UseLines: uses[id]})
	}
	return out
}

// scanChains replays every block's event stream against the reaching
// sets, invoking hit for each (real def site, use line) pair in
// discovery order. cur must hold r.w words of scratch.
func (fa *funcAnalysis) scanChains(r *reaching, cur []uint64, hit func(site, line int32)) {
	for _, b := range fa.g.Blocks {
		copy(cur, r.row(r.in, b))
		for ei := fa.evOff[b.ID]; ei < fa.evOff[b.ID+1]; ei++ {
			ev := fa.events[ei]
			switch ev.kind {
			case evUse:
				for _, id := range r.defsOf[ev.vid] {
					if int(id) < r.nReal && hasBit(cur, id) {
						hit(id, ev.line)
					}
				}
			case evDef:
				for _, id := range r.defsOf[ev.vid] {
					clearBit(cur, id)
				}
				setBit(cur, r.eventDef[ei])
			}
		}
	}
}

// VarLiveWidth reports the liveness footprint of one local variable:
// the number of CFG blocks at whose exit the variable is still live.
// Widths are block counts, never line spans, so they are invariant to
// layout and comment rewrites.
type VarLiveWidth struct {
	Var   string
	Width int
}

// LiveWidths runs the backward liveness analysis and returns one entry
// per analyzed local (parameters included) in declaration order.
func LiveWidths(g *CFG, funcs map[string]*cppast.FuncDecl) []VarLiveWidth {
	fa := newFuncAnalysis(g, funcs)
	counts := fa.liveWidthCounts()
	out := make([]VarLiveWidth, 0, len(fa.vars))
	for vid := range fa.vars {
		out = append(out, VarLiveWidth{Var: fa.vars[vid].Name, Width: int(counts[vid])})
	}
	return out
}

// liveWidthCounts runs liveness and counts, per variable, the blocks
// at whose exit it is live.
func (fa *funcAnalysis) liveWidthCounts() []int32 {
	lo := fa.liveness()
	fa.counts = resizeI32(fa.counts, len(fa.vars))
	w := fa.live.w
	for bi := range fa.g.Blocks {
		row := lo[bi*w : (bi+1)*w]
		for wi, word := range row {
			for word != 0 {
				vid := wi<<6 + bits.TrailingZeros64(word)
				if vid < len(fa.vars) {
					fa.counts[vid]++
				}
				word &= word - 1
			}
		}
	}
	return fa.counts
}

// --- liveness ---

// liveness holds the backward live-variable analysis rows, one bit per
// variable (vid), one row per block.
type liveness struct {
	w                  int
	use, def, in, out_ []uint64
}

// liveness runs backward live-variable analysis and returns the
// live-out rows, len(g.Blocks) rows of fa.live.w words each, bit i =
// vid i live at block exit.
func (fa *funcAnalysis) liveness() []uint64 {
	lv := &fa.live
	lv.w = (len(fa.vars) + 63) / 64
	if lv.w == 0 {
		lv.w = 1
	}
	nb := len(fa.g.Blocks)
	total := nb * lv.w
	lv.use = resizeU64(lv.use, total)
	lv.def = resizeU64(lv.def, total)
	lv.in = resizeU64(lv.in, total)
	lv.out_ = resizeU64(lv.out_, total)
	for bi := range fa.g.Blocks {
		u := lv.use[bi*lv.w : (bi+1)*lv.w]
		d := lv.def[bi*lv.w : (bi+1)*lv.w]
		for ei := fa.evOff[bi]; ei < fa.evOff[bi+1]; ei++ {
			ev := fa.events[ei]
			switch ev.kind {
			case evUse:
				if !hasBit(d, ev.vid) {
					setBit(u, ev.vid)
				}
			case evDef:
				setBit(d, ev.vid)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := nb - 1; i >= 0; i-- {
			b := fa.g.Blocks[i]
			out := lv.out_[i*lv.w : (i+1)*lv.w]
			for wi := range out {
				out[wi] = 0
			}
			for _, s := range b.Succs {
				si := lv.in[s.ID*lv.w : (s.ID+1)*lv.w]
				for wi := range out {
					out[wi] |= si[wi]
				}
			}
			in := lv.in[i*lv.w : (i+1)*lv.w]
			u := lv.use[i*lv.w : (i+1)*lv.w]
			d := lv.def[i*lv.w : (i+1)*lv.w]
			for wi := range in {
				next := u[wi] | (out[wi] &^ d[wi])
				if next != in[wi] {
					in[wi] = next
					changed = true
				}
			}
		}
	}
	return lv.out_
}

// --- summary path (semstats) ---

// DataflowSummary aggregates the def-use chain and live-width
// distributions of one function — exactly the numbers semstats folds
// into FuncStats, produced without materializing chains or width
// slices.
type DataflowSummary struct {
	Chains       int    // real def sites
	ChainUses    int    // total use events over all chains
	MaxChainLen  int    // most uses reached by one def
	ChainsAtLen  [4]int // 0, 1, 2, >=3 uses
	Vars         int
	LiveWidthSum int
	MaxLiveWidth int
}

// DataflowScratch is a reusable workspace for Summary. One scratch
// serves one function at a time; steady state it allocates nothing.
type DataflowScratch struct {
	fa funcAnalysis
}

// NewDataflowScratch returns an empty workspace.
func NewDataflowScratch() *DataflowScratch { return &DataflowScratch{} }

// Release drops name-bearing state so a pooled scratch does not pin
// the last-analyzed source's strings between uses.
func (ds *DataflowScratch) Release() {
	clear(ds.fa.varID)
	ds.fa.vars = ds.fa.vars[:0]
	ds.fa.g = nil
	ds.fa.funcs = nil
	ds.fa.rpo = ds.fa.rpo[:0]
}

// Summary computes both dataflow summaries of g over reused storage.
// The result aggregates what DefUseChains and LiveWidths would return.
func (ds *DataflowScratch) Summary(g *CFG, funcs map[string]*cppast.FuncDecl) DataflowSummary {
	fa := &ds.fa
	fa.init(g, funcs)
	r := fa.reachingDefs()
	fa.useCnt = resizeI32(fa.useCnt, r.nReal)
	fa.cur = resizeU64(fa.cur, r.w)
	fa.scanChains(r, fa.cur, func(site, _ int32) {
		fa.useCnt[site]++
	})
	var sum DataflowSummary
	sum.Chains = r.nReal
	for _, n := range fa.useCnt {
		sum.ChainUses += int(n)
		if int(n) > sum.MaxChainLen {
			sum.MaxChainLen = int(n)
		}
		switch {
		case n == 0:
			sum.ChainsAtLen[0]++
		case n == 1:
			sum.ChainsAtLen[1]++
		case n == 2:
			sum.ChainsAtLen[2]++
		default:
			sum.ChainsAtLen[3]++
		}
	}
	counts := fa.liveWidthCounts()
	sum.Vars = len(fa.vars)
	for _, c := range counts {
		sum.LiveWidthSum += int(c)
		if int(c) > sum.MaxLiveWidth {
			sum.MaxLiveWidth = int(c)
		}
	}
	return sum
}
