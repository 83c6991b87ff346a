package cppast

import "gptattr/internal/reuse"

// Arena owns all memory for trees built by ParseTokens: per-type node
// slabs, bump-allocated child slices, and an intern table for composed
// type/name strings. A pooled Arena makes steady-state parsing
// allocation-free; Reset recycles the slabs for the next parse and
// invalidates every tree previously built from the arena.
//
// Arena-built trees are ordinary ASTs: child slices are capped at their
// length, so appending (as transformation passes do) copies out of the
// slab instead of clobbering a sibling, and nodes built by hand with
// struct literals mix freely with arena nodes.
type Arena struct {
	units     bump[TranslationUnit]
	preprocs  bump[Preproc]
	usings    bump[UsingDirective]
	typedefs  bump[TypedefDecl]
	unknowns  bump[Unknown]
	structs   bump[StructDecl]
	empties   bump[EmptyStmt]
	funcs     bump[FuncDecl]
	params    bump[Param]
	decltors  bump[Declarator]
	vardecls  bump[VarDecl]
	blocks    bump[Block]
	ifs       bump[If]
	fors      bump[For]
	whiles    bump[While]
	dos       bump[DoWhile]
	switches  bump[Switch]
	cases     bump[SwitchCase]
	returns   bump[Return]
	breaks    bump[Break]
	conts     bump[Continue]
	exprstmts bump[ExprStmt]
	binaries  bump[BinaryExpr]
	unaries   bump[UnaryExpr]
	ternaries bump[TernaryExpr]
	calls     bump[CallExpr]
	indexes   bump[IndexExpr]
	members   bump[MemberExpr]
	casts     bump[CastExpr]
	parens    bump[ParenExpr]
	idents    bump[Ident]
	lits      bump[Lit]

	// Backing stores for child slices, filled by copying spans off the
	// scratch stacks below once a node's child list is complete.
	nodeBack  bump[Node]
	paramBack bump[*Param]
	declBack  bump[*Declarator]
	caseBack  bump[*SwitchCase]

	// Scratch stacks shared by all in-flight child lists; mark/take
	// discipline keeps nested productions from interleaving.
	nodeStk  []Node
	paramStk []*Param
	declStk  []*Declarator
	caseStk  []*SwitchCase

	// String-building scratch. buf backs joins and recovery text, buf2
	// backs qualified-name composition (the two can be live at once),
	// parts collects type-name fragments before joining.
	buf   []byte
	buf2  []byte
	parts []string

	// intern deduplicates composed strings ("long long", "std::max",
	// "vector<int>") so steady-state reparses of similar code build no
	// new strings. It survives Reset; size and entry length are capped.
	intern map[string]string

	ps parser
}

// NewArena returns an empty arena. The zero value is also ready to use.
func NewArena() *Arena { return &Arena{} }

// Reset recycles the arena for the next parse. Every tree previously
// returned by ParseTokens with this arena becomes invalid: its nodes
// are zeroed, so a pooled arena does not pin the last source. Reset
// clears only the slots the last parse took (the scratch stacks clear
// on every pop), drops any slab above reuse.MaxSlots, and keeps the
// intern table.
func (a *Arena) Reset() {
	a.units.reset()
	a.preprocs.reset()
	a.usings.reset()
	a.typedefs.reset()
	a.unknowns.reset()
	a.structs.reset()
	a.empties.reset()
	a.funcs.reset()
	a.params.reset()
	a.decltors.reset()
	a.vardecls.reset()
	a.blocks.reset()
	a.ifs.reset()
	a.fors.reset()
	a.whiles.reset()
	a.dos.reset()
	a.switches.reset()
	a.cases.reset()
	a.returns.reset()
	a.breaks.reset()
	a.conts.reset()
	a.exprstmts.reset()
	a.binaries.reset()
	a.unaries.reset()
	a.ternaries.reset()
	a.calls.reset()
	a.indexes.reset()
	a.members.reset()
	a.casts.reset()
	a.parens.reset()
	a.idents.reset()
	a.lits.reset()
	a.nodeBack.reset()
	a.paramBack.reset()
	a.declBack.reset()
	a.caseBack.reset()
	a.nodeStk = reuse.Slab(a.nodeStk)
	a.paramStk = reuse.Slab(a.paramStk)
	a.declStk = reuse.Slab(a.declStk)
	a.caseStk = reuse.Slab(a.caseStk)
	a.buf = reuse.Trim(a.buf)[:0]
	a.buf2 = reuse.Trim(a.buf2)[:0]
	a.parts = reuse.Slab(a.parts)
	a.ps = parser{}
}

const (
	maxInternEntries = 4096
	maxInternLen     = 96
)

// internBytes returns b as a string, deduplicated through the intern
// table when small enough. The map lookup on a []byte key does not
// allocate; only first-seen strings do.
func (a *Arena) internBytes(b []byte) string {
	if s, ok := a.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(s) <= maxInternLen && len(a.intern) < maxInternEntries {
		if a.intern == nil {
			a.intern = make(map[string]string, 64)
		}
		a.intern[s] = s
	}
	return s
}

// bump is a grow-by-abandonment slab: alloc and take hand out slots in
// buf, and when buf fills, a larger one replaces it — previously handed
// out pointers keep the old array alive, so nothing moves. reset keeps
// only the newest (largest) buffer, which is what makes a pooled arena
// converge to zero steady-state allocations, and clears only its used
// prefix: the slots past it are still zero.
type bump[T any] struct{ buf []T }

func (b *bump[T]) grow(n int) {
	c := 2 * cap(b.buf)
	if c < 64 {
		c = 64
	}
	if c < n {
		c = n
	}
	b.buf = make([]T, 0, c)
}

func (b *bump[T]) reset() { b.buf = reuse.Slab(b.buf) }

// pop truncates a scratch stack to mark, zeroing the popped slots so
// a stack's slots past its length never hold a stale node or string.
func pop[T any](stk []T, mark int) []T {
	clear(stk[mark:])
	return stk[:mark]
}

// alloc returns a pointer to a zeroed slot.
func alloc[T any](b *bump[T]) *T {
	if len(b.buf) == cap(b.buf) {
		b.grow(1)
	}
	var zero T
	b.buf = append(b.buf, zero)
	return &b.buf[len(b.buf)-1]
}

// take copies src into the slab and returns the copy, capped at its
// length so a later append by tree-mutating callers reallocates instead
// of overwriting the adjacent sibling slice.
func (b *bump[T]) take(src []T) []T {
	n := len(src)
	if n == 0 {
		return nil
	}
	if cap(b.buf)-len(b.buf) < n {
		b.grow(n)
	}
	s := len(b.buf)
	b.buf = b.buf[:s+n]
	out := b.buf[s : s+n : s+n]
	copy(out, src)
	return out
}
