// Package cppcheck is a stdlib-only static-analysis layer over the
// cppast tree: per-function control-flow-graph construction,
// reaching-definitions and liveness dataflow with def-use chains, a
// diagnostics engine with stable rule IDs (uninitialized reads, dead
// stores, unreachable statements, unused declarations,
// constant-condition branches), and a normalized program fingerprint
// used by transform.StaticVerify as a conservative equivalence
// pre-screen before the interpreter.
//
// Every per-function analysis runs on a Scratch, the one reusable
// workspace: Build constructs a function's CFG over recycled storage
// and walks its reachability once, and Compact, Summary, DefUseChains,
// LiveWidths and AppendDiagnostics read that graph. Analyze and
// Fingerprint take one pooled Scratch per unit, internal/semstats
// keeps one per pooled workspace.
//
// The analyses are deliberately tuned to the competitive-programming
// subset the rest of the system speaks: flat scoping, scalar locals,
// arrays and vectors treated opaquely. Anything outside the subset
// (Unknown nodes, struct members) marks the function unsupported and
// every downstream consumer degrades conservatively — the diagnostics
// engine stays silent and the fingerprint reports "no fingerprint"
// rather than guessing.
package cppcheck

import (
	"slices"

	"gptattr/internal/cppast"
)

// Block is one basic block of a function CFG. Statements are the
// simple (non-control-flow) statements executed in order; Cond, when
// non-nil, is the branch condition evaluated after them, with Succs[0]
// the true edge and Succs[1] the false edge. A block with a nil Cond
// has at most one successor (fall-through), except the synthetic
// dispatch block of a switch, which fans out to its cases.
type Block struct {
	ID    int
	Label string
	Stmts []cppast.Node
	Cond  cppast.Node
	Succs []*Block
	Preds []*Block
	// IsSwitch marks the dispatch block of a switch statement. CaseVals
	// then labels the first len(CaseVals) successor edges with the case
	// values in source order (nil = the default case); any extra edge is
	// the implicit no-match fall-through to the after-block. Analyses
	// that compare behaviour (the fingerprint) must consume these labels
	// — two switches differing only in case values have identical graph
	// shapes.
	IsSwitch bool
	CaseVals []cppast.Node
}

// CFG is the control-flow graph of one function body. Entry and Exit
// are synthetic empty blocks; every return statement edges to Exit.
type CFG struct {
	Fn     *cppast.FuncDecl
	Entry  *Block
	Exit   *Block
	Blocks []*Block
	// Unsupported reports that the body contained constructs outside
	// the analyzable subset (Unknown regions, nested struct/typedef
	// declarations); diagnostics and fingerprints must not trust the
	// graph for behavioural conclusions, only for shape.
	Unsupported bool

	// The one reachability walk of the graph, taken when it is built:
	// reach marks by block ID the blocks reachable from Entry, and rpo
	// lists them in reverse postorder. Compaction, the dataflow and
	// the diagnostics all read it.
	reach []bool
	rpo   []*Block
}

// loopCtx is the break/continue target pair of an enclosing loop or
// switch (switch contributes only a break target).
type loopCtx struct {
	brk  *Block
	cont *Block // nil inside a switch with no enclosing loop
}

type cfgBuilder struct {
	s     *Scratch
	g     *CFG
	cur   *Block
	loops []loopCtx
}

// Build constructs the control-flow graph of fn's body over the
// scratch's recycled storage and walks its reachability. It returns
// nil for a bodyless prototype. The builder never fails: unsupported
// statements are recorded as opaque block statements and flag the
// graph Unsupported. The returned *CFG, and every Block in it, is
// owned by the scratch and valid only until its next Build or Release
// call.
func (s *Scratch) Build(fn *cppast.FuncDecl) *CFG {
	if fn == nil || fn.Body == nil {
		return nil
	}
	s.used, s.usedEx = 0, 0
	g := &s.g
	*g = CFG{Fn: fn, Blocks: g.Blocks[:0], reach: g.reach, rpo: g.rpo}
	b := &cfgBuilder{s: s, g: g, loops: s.loops[:0]}
	g.Entry = b.newBlock("entry")
	g.Exit = b.newBlock("exit")
	first := b.newBlock("body")
	link(g.Entry, first)
	b.cur = first
	b.stmts(fn.Body.Stmts)
	// Fall off the end of the body: implicit return.
	link(b.cur, g.Exit)
	s.loops = b.loops[:0]
	g.walk()
	return g
}

// walk fills reach and rpo.
func (g *CFG) walk() {
	g.reach = resize(g.reach, len(g.Blocks))
	if cap(g.rpo) < len(g.Blocks) {
		g.rpo = make([]*Block, 0, len(g.Blocks))
	}
	g.rpo = g.rpo[:0]
	g.postorder(g.Entry)
	slices.Reverse(g.rpo)
}

func (g *CFG) postorder(b *Block) {
	if g.reach[b.ID] {
		return
	}
	g.reach[b.ID] = true
	for _, s := range b.Succs {
		g.postorder(s)
	}
	g.rpo = append(g.rpo, b)
}

func (b *cfgBuilder) newBlock(label string) *Block {
	blk := b.s.takeBlock()
	blk.Label = label
	blk.ID = len(b.g.Blocks)
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func link(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// detach starts a fresh block with no predecessors, used after a
// statement that never falls through (return/break/continue). Any
// following source statements land there and show up as unreachable.
func (b *cfgBuilder) detach(label string) {
	b.cur = b.newBlock(label)
}

func (b *cfgBuilder) stmts(list []cppast.Node) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s cppast.Node) {
	switch n := s.(type) {
	case nil:
	case *cppast.Block:
		b.stmts(n.Stmts)
	case *cppast.Comment, *cppast.EmptyStmt, *cppast.UsingDirective:
		// No behaviour, no dataflow.
	case *cppast.VarDecl, *cppast.ExprStmt, *cppast.Preproc, *cppast.TypedefDecl:
		b.cur.Stmts = append(b.cur.Stmts, s)
	case *cppast.Return:
		b.cur.Stmts = append(b.cur.Stmts, s)
		link(b.cur, b.g.Exit)
		b.detach("after.return")
	case *cppast.Break:
		if t := b.breakTarget(); t != nil {
			link(b.cur, t)
		}
		b.detach("after.break")
	case *cppast.Continue:
		if t := b.continueTarget(); t != nil {
			link(b.cur, t)
		}
		b.detach("after.continue")
	case *cppast.If:
		b.ifStmt(n)
	case *cppast.For:
		b.forStmt(n)
	case *cppast.While:
		b.whileStmt(n)
	case *cppast.DoWhile:
		b.doWhileStmt(n)
	case *cppast.Switch:
		b.switchStmt(n)
	default:
		// Unknown / StructDecl / anything new: keep it as an opaque
		// statement so positions survive, but stop trusting analyses.
		b.cur.Stmts = append(b.cur.Stmts, s)
		b.g.Unsupported = true
	}
}

func (b *cfgBuilder) breakTarget() *Block {
	if len(b.loops) == 0 {
		b.g.Unsupported = true // stray break
		return nil
	}
	return b.loops[len(b.loops)-1].brk
}

func (b *cfgBuilder) continueTarget() *Block {
	for i := len(b.loops) - 1; i >= 0; i-- {
		if b.loops[i].cont != nil {
			return b.loops[i].cont
		}
	}
	b.g.Unsupported = true // stray continue
	return nil
}

func (b *cfgBuilder) ifStmt(n *cppast.If) {
	condBlk := b.cur
	condBlk.Cond = n.Cond
	thenBlk := b.newBlock("if.then")
	join := b.newBlock("if.join")
	link(condBlk, thenBlk)
	if n.Else != nil {
		elseBlk := b.newBlock("if.else")
		link(condBlk, elseBlk)
		b.cur = thenBlk
		b.stmt(n.Then)
		link(b.cur, join)
		b.cur = elseBlk
		b.stmt(n.Else)
		link(b.cur, join)
	} else {
		link(condBlk, join)
		b.cur = thenBlk
		b.stmt(n.Then)
		link(b.cur, join)
	}
	b.cur = join
}

func (b *cfgBuilder) forStmt(n *cppast.For) {
	if n.Init != nil {
		b.stmt(n.Init)
	}
	cond := b.newBlock("for.cond")
	body := b.newBlock("for.body")
	post := b.newBlock("for.post")
	after := b.newBlock("for.after")
	link(b.cur, cond)
	if n.Cond != nil {
		cond.Cond = n.Cond
		link(cond, body)
		link(cond, after)
	} else {
		link(cond, body) // for(;;): no false edge
	}
	b.loops = append(b.loops, loopCtx{brk: after, cont: post})
	b.cur = body
	b.stmt(n.Body)
	link(b.cur, post)
	if n.Post != nil {
		// Materialize the post clause as a statement so dataflow and
		// the fingerprint see for/while forms identically.
		post.Stmts = append(post.Stmts, b.s.takeExprStmt(n.Post))
	}
	link(post, cond)
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = after
}

func (b *cfgBuilder) whileStmt(n *cppast.While) {
	cond := b.newBlock("while.cond")
	body := b.newBlock("while.body")
	after := b.newBlock("while.after")
	link(b.cur, cond)
	cond.Cond = n.Cond
	link(cond, body)
	link(cond, after)
	b.loops = append(b.loops, loopCtx{brk: after, cont: cond})
	b.cur = body
	b.stmt(n.Body)
	link(b.cur, cond)
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = after
}

func (b *cfgBuilder) doWhileStmt(n *cppast.DoWhile) {
	body := b.newBlock("do.body")
	cond := b.newBlock("do.cond")
	after := b.newBlock("do.after")
	link(b.cur, body)
	b.loops = append(b.loops, loopCtx{brk: after, cont: cond})
	b.cur = body
	b.stmt(n.Body)
	link(b.cur, cond)
	cond.Cond = n.Cond
	link(cond, body)
	link(cond, after)
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = after
}

// switchStmt models dispatch as a fan-out from the block holding the
// switch condition to every case head (plus the after-block when no
// default case exists), with fall-through edges between consecutive
// cases. This over-approximates real case matching, which is the safe
// direction for may-analyses.
func (b *cfgBuilder) switchStmt(n *cppast.Switch) {
	dispatch := b.cur
	dispatch.Cond = n.Cond
	dispatch.IsSwitch = true
	after := b.newBlock("switch.after")
	b.loops = append(b.loops, loopCtx{brk: after})
	heads := make([]*Block, len(n.Cases))
	for i, c := range n.Cases {
		heads[i] = b.newBlock("case")
		link(dispatch, heads[i])
		dispatch.CaseVals = append(dispatch.CaseVals, c.Value)
	}
	hasDefault := false
	for _, c := range n.Cases {
		if c.Value == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		link(dispatch, after)
	}
	for i, c := range n.Cases {
		b.cur = heads[i]
		b.stmts(c.Stmts)
		if i+1 < len(n.Cases) {
			link(b.cur, heads[i+1]) // fall-through
		} else {
			link(b.cur, after)
		}
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = after
}
