package cppcheck

import (
	"math/bits"
	"strings"

	"gptattr/internal/cppast"
	"gptattr/internal/reuse"
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
// function's storage, so a Scratch analyzes function after function
// without allocating.
type funcAnalysis struct {
	g     *CFG
	funcs map[string]*cppast.FuncDecl // unit-level, for ref params

	varID  map[string]int32 // name -> index into vars (emptied per init)
	vars   []VarInfo        // declaration order
	events []event          // block-major flat event stream
	evOff  []int32          // len(g.Blocks)+1 offsets into events

	r    reaching
	live dataflow // see liveness

	order []*Block // the liveness visiting order (backwardOrder)

	// Per-variable block epochs, and the replay's current def.
	cur []curDef

	// Summary and diagnostics scratch.
	useCnt  []int32
	counts  []int32
	liveRow []uint64 // checkDeadStores' running live set
	varMark []bool   // per-variable flags of one rule
}

// curDef is one variable's def state within the block being walked:
// the site of its current def, valid when epoch is the block's.
type curDef struct {
	epoch, site int32
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

// init collects the declarations and the per-block event stream of
// g's function, recycling fa's slabs.
func (fa *funcAnalysis) init(g *CFG, funcs map[string]*cppast.FuncDecl) {
	fa.g = g
	fa.funcs = funcs
	fa.varID = reuse.Map(fa.varID)
	fa.vars = reuse.Slab(fa.vars)
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

// backwardOrder returns the order liveness visits blocks in: the
// reachable blocks in postorder, so each follows its successors
// outside loops, then the unreachable ones, whose live-out rows count
// toward the widths too.
func (fa *funcAnalysis) backwardOrder() []*Block {
	rpo := fa.g.rpo
	if cap(fa.order) < len(fa.g.Blocks) {
		fa.order = make([]*Block, 0, len(fa.g.Blocks))
	}
	fa.order = fa.order[:0]
	for i := len(rpo) - 1; i >= 0; i-- {
		fa.order = append(fa.order, rpo[i])
	}
	for i := len(fa.g.Blocks) - 1; i >= 0; i-- {
		if !fa.g.reach[i] {
			fa.order = append(fa.order, fa.g.Blocks[i])
		}
	}
	return fa.order
}

// --- bitset helpers ---

func setBit(s []uint64, i int32)      { s[i>>6] |= 1 << (uint(i) & 63) }
func clearBit(s []uint64, i int32)    { s[i>>6] &^= 1 << (uint(i) & 63) }
func hasBit(s []uint64, i int32) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// resize returns a zeroed slice of length n, reusing s's capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// --- the fixpoint ---

// dataflow is one gen/kill bitset problem over a function's blocks,
// one row of w words per block ID. Its solution satisfies, for every
// visited block b,
//
//	join[b] = the union of fact[x] over b's neighbours x
//	fact[b] = gen[b] | (join[b] &^ kill[b])
//
// where the neighbours are b's predecessors for a forward problem and
// its successors for a backward one.
type dataflow struct {
	w                     int
	gen, kill, join, fact []uint64
}

// reset zeroes every row for nb blocks of w words, reusing capacity.
func (d *dataflow) reset(w, nb int) {
	d.w = w
	d.gen = resize(d.gen, nb*w)
	d.kill = resize(d.kill, nb*w)
	d.join = resize(d.join, nb*w)
	d.fact = resize(d.fact, nb*w)
}

func (d *dataflow) row(s []uint64, id int) []uint64 {
	return s[id*d.w : (id+1)*d.w]
}

// solve sweeps the blocks of order until a sweep changes no fact, and
// returns the number of sweeps, the unchanged last one included. Facts
// start empty and only grow, so the result is the problem's least
// fixpoint whatever the order; the order sets only the sweep count.
// Visiting every block after its neighbours outside loops (reverse
// postorder forward, postorder backward) settles an acyclic graph in
// one sweep, which the next confirms. Blocks outside order keep empty
// rows.
func (d *dataflow) solve(order []*Block, forward bool) int {
	for sweeps := 1; ; sweeps++ {
		changed := false
		for _, b := range order {
			nbrs := b.Succs
			if forward {
				nbrs = b.Preds
			}
			join := d.row(d.join, b.ID)
			clear(join)
			for _, x := range nbrs {
				f := d.row(d.fact, x.ID)
				for i := range join {
					join[i] |= f[i]
				}
			}
			fact, gen, kill := d.row(d.fact, b.ID), d.row(d.gen, b.ID), d.row(d.kill, b.ID)
			for i := range fact {
				if next := gen[i] | (join[i] &^ kill[i]); next != fact[i] {
					fact[i] = next
					changed = true
				}
			}
		}
		if !changed {
			return sweeps
		}
	}
}

// --- reaching definitions ---

// reaching is the forward reaching-definitions problem over def-site
// bitsets: join rows are the defs reaching a block's entry, fact rows
// those leaving it. Def IDs number the real def events in block/event
// order; each uninit-declared non-parameter variable also gets a
// pseudo-def numbered after the real ones, generated by Entry.
type reaching struct {
	dataflow
	nReal int // real def sites

	siteEv   []int32   // site id -> flat event index
	eventDef []int32   // flat event index -> site id, -1 for uses
	defsOf   [][]int32 // vid -> site ids (real in stream order, pseudo last)
	uninitID []int32   // vid -> pseudo site id, -1 when none
}

// reachingDefs numbers the def sites, solves reaching definitions over
// the reachable blocks into fa.r and returns the sweep count.
// Unreachable blocks keep empty rows: their dead defs must not leak
// into live joins.
func (fa *funcAnalysis) reachingDefs() int {
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
	r.eventDef = resize(r.eventDef, len(fa.events))
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
	r.uninitID = resize(r.uninitID, nv)
	for vid := range fa.vars {
		r.uninitID[vid] = -1
		if v := &fa.vars[vid]; v.Uninit && !v.Param {
			r.uninitID[vid] = int32(n)
			r.defsOf[vid] = append(r.defsOf[vid], int32(n))
			n++
		}
	}
	r.reset(max((n+63)/64, 1), len(fa.g.Blocks))

	// Only a block's last def of each variable leaves the block, and
	// it kills every def of that variable, the pseudo-def included.
	// Walking each block backwards meets that def first.
	fa.cur = resize(fa.cur, len(fa.vars))
	for bi := range fa.g.Blocks {
		ep := int32(bi + 1)
		gen, kill := r.row(r.gen, bi), r.row(r.kill, bi)
		for ei := fa.evOff[bi+1] - 1; ei >= fa.evOff[bi]; ei-- {
			ev := fa.events[ei]
			if ev.kind != evDef || fa.cur[ev.vid].epoch == ep {
				continue
			}
			fa.cur[ev.vid].epoch = ep
			for _, id := range r.defsOf[ev.vid] {
				setBit(kill, id)
			}
			setBit(gen, r.eventDef[ei])
		}
	}
	entryGen := r.row(r.gen, fa.g.Entry.ID)
	for _, id := range r.uninitID {
		if id >= 0 {
			setBit(entryGen, id)
		}
	}
	return r.solve(fa.g.rpo, true)
}

// replay walks the blocks of order event by event against the solved
// reaching definitions, calling hit with every def site, real or
// pseudo, that reaches each use (in defsOf order). A use of a variable
// its block has already defined is reached by that def alone, found in
// O(1) through an epoch-stamped current def; any other use tests its
// variable's defs against the block's join row, which the replay only
// reads.
func (fa *funcAnalysis) replay(order []*Block, hit func(site int32, use event)) {
	r := &fa.r
	fa.cur = resize(fa.cur, len(fa.vars))
	for i, b := range order {
		ep := int32(i + 1)
		in := r.row(r.join, b.ID)
		for ei := fa.evOff[b.ID]; ei < fa.evOff[b.ID+1]; ei++ {
			ev := fa.events[ei]
			switch {
			case ev.kind == evDef:
				fa.cur[ev.vid] = curDef{epoch: ep, site: r.eventDef[ei]}
			case fa.cur[ev.vid].epoch == ep:
				hit(fa.cur[ev.vid].site, ev)
			default:
				for _, id := range r.defsOf[ev.vid] {
					if hasBit(in, id) {
						hit(id, ev)
					}
				}
			}
		}
	}
}

// DefUseEntry is one def-use chain link: a definition site and the
// lines of the uses it reaches.
type DefUseEntry struct {
	Var      string
	DefLine  int
	UseLines []int
}

// DefUseChains computes, for every real definition of a local
// variable in g, the source lines of the uses that definition reaches.
// Entries follow block/event order; use lines are in discovery order.
// The result is caller-owned.
func (s *Scratch) DefUseChains(g *CFG, funcs map[string]*cppast.FuncDecl) []DefUseEntry {
	fa := &s.fa
	fa.init(g, funcs)
	fa.reachingDefs()
	r := &fa.r
	uses := make([][]int, r.nReal)
	fa.replay(g.Blocks, func(site int32, use event) {
		if int(site) < r.nReal {
			uses[site] = append(uses[site], int(use.line))
		}
	})
	var out []DefUseEntry
	for id := 0; id < r.nReal; id++ {
		ev := fa.events[r.siteEv[id]]
		out = append(out, DefUseEntry{Var: fa.vars[ev.vid].Name, DefLine: int(ev.line), UseLines: uses[id]})
	}
	return out
}

// VarLiveWidth reports the liveness footprint of one local variable:
// the number of CFG blocks at whose exit the variable is still live.
// Widths are block counts, never line spans, so they are invariant to
// layout and comment rewrites.
type VarLiveWidth struct {
	Var   string
	Width int
}

// LiveWidths runs the backward liveness analysis over g and returns
// one entry per analyzed local (parameters included) in declaration
// order. The result is caller-owned.
func (s *Scratch) LiveWidths(g *CFG, funcs map[string]*cppast.FuncDecl) []VarLiveWidth {
	fa := &s.fa
	fa.init(g, funcs)
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
	fa.liveness()
	lv := &fa.live
	fa.counts = resize(fa.counts, len(fa.vars))
	for bi := range fa.g.Blocks {
		for wi, word := range lv.row(lv.join, bi) {
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

// liveness solves backward live-variable analysis into fa.live — one
// bit per variable (vid); gen rows are the uses a block reads before
// defining, kill rows its defs, join rows the live-out sets — and
// returns the sweep count.
func (fa *funcAnalysis) liveness() int {
	lv := &fa.live
	lv.reset(max((len(fa.vars)+63)/64, 1), len(fa.g.Blocks))
	for bi := range fa.g.Blocks {
		use, def := lv.row(lv.gen, bi), lv.row(lv.kill, bi)
		for ei := fa.evOff[bi]; ei < fa.evOff[bi+1]; ei++ {
			ev := fa.events[ei]
			switch ev.kind {
			case evUse:
				if !hasBit(def, ev.vid) {
					setBit(use, ev.vid)
				}
			case evDef:
				setBit(def, ev.vid)
			}
		}
	}
	return lv.solve(fa.backwardOrder(), false)
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

// release drops name-bearing state so a pooled scratch does not pin
// the last-analyzed source's strings between uses. The other slabs
// hold only numbers, each sized by a function's blocks, variables or
// events, or, for the bitset rows, by its blocks times its def sites
// or variables. Scratch.Release bounds the blocks; when one of the
// others outgrew reuse.MaxSlots, the whole state is dropped.
func (fa *funcAnalysis) release() {
	if max(cap(fa.vars), cap(fa.events), cap(fa.r.gen), cap(fa.live.gen)) > reuse.MaxSlots {
		*fa = funcAnalysis{}
		return
	}
	fa.varID = reuse.Map(fa.varID)
	fa.vars = reuse.Slab(fa.vars)
	fa.g = nil
	fa.funcs = nil
	fa.order = fa.order[:0]
}

// Summary computes both dataflow summaries of g over reused storage.
// The result aggregates what DefUseChains and LiveWidths would return.
func (s *Scratch) Summary(g *CFG, funcs map[string]*cppast.FuncDecl) DataflowSummary {
	fa := &s.fa
	fa.init(g, funcs)
	fa.reachingDefs()
	nReal := fa.r.nReal
	fa.useCnt = resize(fa.useCnt, nReal)
	fa.replay(g.Blocks, func(site int32, _ event) {
		if int(site) < nReal {
			fa.useCnt[site]++
		}
	})
	var sum DataflowSummary
	sum.Chains = nReal
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
