// Package cppast implements a tolerant ("fuzzy") parser for the subset
// of C++ that dominates competitive-programming solutions: functions,
// block statements, control flow, declarations, and full expression
// syntax via precedence climbing. Constructs outside the subset are
// preserved as opaque Unknown nodes rather than aborting the parse, so
// stylometric analysis degrades gracefully on unusual files.
//
// The AST serves two consumers with different needs: the stylometry
// package walks it generically (node-kind term frequencies, parent-child
// bigrams, depths), and the cppinterp package evaluates it directly to
// check that source-to-source transformations preserve behaviour. Nodes
// therefore expose both a uniform Kind/Children view and typed fields.
package cppast

// Node is implemented by every AST node.
type Node interface {
	// Kind returns a stable, human-readable node-kind name used as the
	// term in syntactic feature vectors (e.g. "For", "BinaryExpr").
	Kind() string
	// Children returns the node's direct children in source order.
	Children() []Node
	// Line returns the 1-based source line of the node's first token,
	// or 0 if unknown.
	Line() int
}

type pos struct{ line int }

func (p pos) Line() int { return p.line }

// TranslationUnit is the root of a parsed file.
type TranslationUnit struct {
	pos
	Decls []Node
}

// Kind implements Node.
func (*TranslationUnit) Kind() string { return "TranslationUnit" }

// Children implements Node.
func (n *TranslationUnit) Children() []Node { return n.Decls }

// Preproc is a preprocessor directive (#include, #define, ...).
type Preproc struct {
	pos
	Text string
}

// Kind implements Node.
func (*Preproc) Kind() string { return "Preproc" }

// Children implements Node.
func (*Preproc) Children() []Node { return nil }

// UsingDirective is a "using namespace X;" or "using X = Y;" directive.
type UsingDirective struct {
	pos
	Text string
}

// Kind implements Node.
func (*UsingDirective) Kind() string { return "Using" }

// Children implements Node.
func (*UsingDirective) Children() []Node { return nil }

// TypedefDecl is a typedef declaration, stored as raw text.
type TypedefDecl struct {
	pos
	Text string
}

// Kind implements Node.
func (*TypedefDecl) Kind() string { return "Typedef" }

// Children implements Node.
func (*TypedefDecl) Children() []Node { return nil }

// Comment is a synthetic comment statement. The parser never produces
// one (comments are stripped before parsing); transformation passes
// inject them so the printer can materialize a commenting style.
type Comment struct {
	pos
	Text  string
	Block bool
}

// Kind implements Node.
func (*Comment) Kind() string { return "Comment" }

// Children implements Node.
func (*Comment) Children() []Node { return nil }

// NewComment builds a synthetic comment node.
func NewComment(text string, block bool) *Comment {
	return &Comment{Text: text, Block: block}
}

// Unknown is an unparseable region, preserved as raw text so that
// downstream consumers can still count it.
type Unknown struct {
	pos
	Text string
}

// Kind implements Node.
func (*Unknown) Kind() string { return "Unknown" }

// Children implements Node.
func (*Unknown) Children() []Node { return nil }

// Param is a function parameter.
type Param struct {
	pos
	Type string
	Name string
	Ref  bool
}

// Kind implements Node.
func (*Param) Kind() string { return "Param" }

// Children implements Node.
func (*Param) Children() []Node { return nil }

// FuncDecl is a function definition (or bodyless prototype).
type FuncDecl struct {
	pos
	RetType string
	Name    string
	Params  []*Param
	Body    *Block // nil for a prototype
}

// Kind implements Node.
func (*FuncDecl) Kind() string { return "FuncDecl" }

// Children implements Node.
func (n *FuncDecl) Children() []Node {
	out := make([]Node, 0, len(n.Params)+1)
	for _, p := range n.Params {
		out = append(out, p)
	}
	if n.Body != nil {
		out = append(out, n.Body)
	}
	return out
}

// StructDecl is a struct/class definition, with member declarations
// parsed as statements where possible.
type StructDecl struct {
	pos
	Keyword string // "struct" or "class"
	Name    string
	Members []Node
}

// Kind implements Node.
func (*StructDecl) Kind() string { return "StructDecl" }

// Children implements Node.
func (n *StructDecl) Children() []Node { return n.Members }

// Declarator is one name within a declaration, e.g. the "b = 2" in
// "int a, b = 2;".
type Declarator struct {
	pos
	Name     string
	ArrayLen []Node // expressions; nil when not an array
	Init     Node   // nil when uninitialized
}

// Kind implements Node.
func (*Declarator) Kind() string { return "Declarator" }

// Children implements Node.
func (n *Declarator) Children() []Node {
	var out []Node
	out = append(out, n.ArrayLen...)
	if n.Init != nil {
		out = append(out, n.Init)
	}
	return out
}

// VarDecl is a variable declaration statement.
type VarDecl struct {
	pos
	Type  string
	Names []*Declarator
}

// Kind implements Node.
func (*VarDecl) Kind() string { return "VarDecl" }

// Children implements Node.
func (n *VarDecl) Children() []Node {
	out := make([]Node, 0, len(n.Names))
	for _, d := range n.Names {
		out = append(out, d)
	}
	return out
}

// Block is a `{ ... }` statement list.
type Block struct {
	pos
	Stmts []Node
}

// Kind implements Node.
func (*Block) Kind() string { return "Block" }

// Children implements Node.
func (n *Block) Children() []Node { return n.Stmts }

// If is an if/else statement.
type If struct {
	pos
	Cond Node
	Then Node
	Else Node // nil when absent
}

// Kind implements Node.
func (*If) Kind() string { return "If" }

// Children implements Node.
func (n *If) Children() []Node {
	out := []Node{n.Cond, n.Then}
	if n.Else != nil {
		out = append(out, n.Else)
	}
	return out
}

// For is a classic three-clause for loop.
type For struct {
	pos
	Init Node // VarDecl, ExprStmt, or nil
	Cond Node // expression or nil
	Post Node // expression or nil
	Body Node
}

// Kind implements Node.
func (*For) Kind() string { return "For" }

// Children implements Node.
func (n *For) Children() []Node {
	var out []Node
	for _, c := range []Node{n.Init, n.Cond, n.Post, n.Body} {
		if c != nil {
			out = append(out, c)
		}
	}
	return out
}

// While is a while loop.
type While struct {
	pos
	Cond Node
	Body Node
}

// Kind implements Node.
func (*While) Kind() string { return "While" }

// Children implements Node.
func (n *While) Children() []Node { return []Node{n.Cond, n.Body} }

// DoWhile is a do/while loop.
type DoWhile struct {
	pos
	Body Node
	Cond Node
}

// Kind implements Node.
func (*DoWhile) Kind() string { return "DoWhile" }

// Children implements Node.
func (n *DoWhile) Children() []Node { return []Node{n.Body, n.Cond} }

// Return is a return statement.
type Return struct {
	pos
	Value Node // nil for bare return
}

// Kind implements Node.
func (*Return) Kind() string { return "Return" }

// Children implements Node.
func (n *Return) Children() []Node {
	if n.Value == nil {
		return nil
	}
	return []Node{n.Value}
}

// Break is a break statement.
type Break struct{ pos }

// Kind implements Node.
func (*Break) Kind() string { return "Break" }

// Children implements Node.
func (*Break) Children() []Node { return nil }

// Continue is a continue statement.
type Continue struct{ pos }

// Kind implements Node.
func (*Continue) Kind() string { return "Continue" }

// Children implements Node.
func (*Continue) Children() []Node { return nil }

// ExprStmt is an expression used as a statement.
type ExprStmt struct {
	pos
	X Node
}

// Kind implements Node.
func (*ExprStmt) Kind() string { return "ExprStmt" }

// Children implements Node.
func (n *ExprStmt) Children() []Node { return []Node{n.X} }

// EmptyStmt is a stray semicolon.
type EmptyStmt struct{ pos }

// Kind implements Node.
func (*EmptyStmt) Kind() string { return "EmptyStmt" }

// Children implements Node.
func (*EmptyStmt) Children() []Node { return nil }

// SwitchCase is one case (or default) label with its statements.
type SwitchCase struct {
	pos
	Value Node // nil for default
	Stmts []Node
}

// Kind implements Node.
func (*SwitchCase) Kind() string { return "SwitchCase" }

// Children implements Node.
func (n *SwitchCase) Children() []Node {
	var out []Node
	if n.Value != nil {
		out = append(out, n.Value)
	}
	return append(out, n.Stmts...)
}

// Switch is a switch statement.
type Switch struct {
	pos
	Cond  Node
	Cases []*SwitchCase
}

// Kind implements Node.
func (*Switch) Kind() string { return "Switch" }

// Children implements Node.
func (n *Switch) Children() []Node {
	out := []Node{n.Cond}
	for _, c := range n.Cases {
		out = append(out, c)
	}
	return out
}

// BinaryExpr is a binary operation, including assignments and the
// stream operators << and >>.
type BinaryExpr struct {
	pos
	Op string
	L  Node
	R  Node
}

// Kind implements Node.
func (*BinaryExpr) Kind() string { return "BinaryExpr" }

// Children implements Node.
func (n *BinaryExpr) Children() []Node { return []Node{n.L, n.R} }

// UnaryExpr is a prefix or postfix unary operation.
type UnaryExpr struct {
	pos
	Op      string
	X       Node
	Postfix bool
}

// Kind implements Node.
func (*UnaryExpr) Kind() string { return "UnaryExpr" }

// Children implements Node.
func (n *UnaryExpr) Children() []Node { return []Node{n.X} }

// TernaryExpr is cond ? a : b.
type TernaryExpr struct {
	pos
	Cond Node
	Then Node
	Else Node
}

// Kind implements Node.
func (*TernaryExpr) Kind() string { return "TernaryExpr" }

// Children implements Node.
func (n *TernaryExpr) Children() []Node { return []Node{n.Cond, n.Then, n.Else} }

// CallExpr is a function call.
type CallExpr struct {
	pos
	Fun  Node
	Args []Node
}

// Kind implements Node.
func (*CallExpr) Kind() string { return "CallExpr" }

// Children implements Node.
func (n *CallExpr) Children() []Node { return append([]Node{n.Fun}, n.Args...) }

// IndexExpr is an array subscript.
type IndexExpr struct {
	pos
	X     Node
	Index Node
}

// Kind implements Node.
func (*IndexExpr) Kind() string { return "IndexExpr" }

// Children implements Node.
func (n *IndexExpr) Children() []Node { return []Node{n.X, n.Index} }

// MemberExpr is a field or method selection (x.f or p->f).
type MemberExpr struct {
	pos
	X     Node
	Sel   string
	Arrow bool
}

// Kind implements Node.
func (*MemberExpr) Kind() string { return "MemberExpr" }

// Children implements Node.
func (n *MemberExpr) Children() []Node { return []Node{n.X} }

// CastExpr is a C-style cast, e.g. (double)x.
type CastExpr struct {
	pos
	Type string
	X    Node
}

// Kind implements Node.
func (*CastExpr) Kind() string { return "CastExpr" }

// Children implements Node.
func (n *CastExpr) Children() []Node { return []Node{n.X} }

// ParenExpr is a parenthesized expression.
type ParenExpr struct {
	pos
	X Node
}

// Kind implements Node.
func (*ParenExpr) Kind() string { return "ParenExpr" }

// Children implements Node.
func (n *ParenExpr) Children() []Node { return []Node{n.X} }

// Ident is an identifier reference, possibly qualified (std::max is a
// single Ident with Name "std::max").
type Ident struct {
	pos
	Name string
}

// Kind implements Node.
func (*Ident) Kind() string { return "Ident" }

// Children implements Node.
func (*Ident) Children() []Node { return nil }

// Lit is a literal; LitKind is one of "int", "float", "string", "char",
// "bool".
type Lit struct {
	pos
	LitKind string
	Text    string
}

// Kind implements Node.
func (*Lit) Kind() string { return "Lit" }

// Children implements Node.
func (*Lit) Children() []Node { return nil }

// VisitChildren calls fn for each direct child of n in the same order
// (and with the same nil entries) as Children(), without building a
// slice. Hot-path walkers use this instead of Children() so traversal
// performs no allocation; fn must tolerate nil children exactly as a
// Children() caller would.
func VisitChildren(n Node, fn func(Node)) {
	switch n := n.(type) {
	case *TranslationUnit:
		for _, c := range n.Decls {
			fn(c)
		}
	case *FuncDecl:
		for _, p := range n.Params {
			fn(p)
		}
		if n.Body != nil {
			fn(n.Body)
		}
	case *StructDecl:
		for _, c := range n.Members {
			fn(c)
		}
	case *Declarator:
		for _, c := range n.ArrayLen {
			fn(c)
		}
		if n.Init != nil {
			fn(n.Init)
		}
	case *VarDecl:
		for _, d := range n.Names {
			fn(d)
		}
	case *Block:
		for _, c := range n.Stmts {
			fn(c)
		}
	case *If:
		fn(n.Cond)
		fn(n.Then)
		if n.Else != nil {
			fn(n.Else)
		}
	case *For:
		for _, c := range [4]Node{n.Init, n.Cond, n.Post, n.Body} {
			if c != nil {
				fn(c)
			}
		}
	case *While:
		fn(n.Cond)
		fn(n.Body)
	case *DoWhile:
		fn(n.Body)
		fn(n.Cond)
	case *Return:
		if n.Value != nil {
			fn(n.Value)
		}
	case *ExprStmt:
		fn(n.X)
	case *SwitchCase:
		if n.Value != nil {
			fn(n.Value)
		}
		for _, c := range n.Stmts {
			fn(c)
		}
	case *Switch:
		fn(n.Cond)
		for _, c := range n.Cases {
			fn(c)
		}
	case *BinaryExpr:
		fn(n.L)
		fn(n.R)
	case *UnaryExpr:
		fn(n.X)
	case *TernaryExpr:
		fn(n.Cond)
		fn(n.Then)
		fn(n.Else)
	case *CallExpr:
		fn(n.Fun)
		for _, c := range n.Args {
			fn(c)
		}
	case *IndexExpr:
		fn(n.X)
		fn(n.Index)
	case *MemberExpr:
		fn(n.X)
	case *CastExpr:
		fn(n.X)
	case *ParenExpr:
		fn(n.X)
	case *Preproc, *UsingDirective, *TypedefDecl, *Comment, *Unknown,
		*Param, *Break, *Continue, *EmptyStmt, *Ident, *Lit:
		// Leaves.
	default:
		// Future node types outside the switch still traverse correctly.
		for _, c := range n.Children() {
			fn(c)
		}
	}
}

// Walk calls fn for every node in depth-first pre-order, passing the
// node and its depth (root at depth 0). If fn returns false the node's
// subtree is skipped.
func Walk(root Node, fn func(n Node, depth int) bool) {
	walk(root, 0, fn)
}

func walk(n Node, depth int, fn func(Node, int) bool) {
	if n == nil {
		return
	}
	if !fn(n, depth) {
		return
	}
	VisitChildren(n, func(c Node) {
		walk(c, depth+1, fn)
	})
}

// CountKinds returns the number of nodes of each kind in the tree.
func CountKinds(root Node) map[string]int {
	out := make(map[string]int)
	Walk(root, func(n Node, _ int) bool {
		out[n.Kind()]++
		return true
	})
	return out
}

// Functions returns every function definition in the unit, in source
// order, including prototypes.
func (n *TranslationUnit) Functions() []*FuncDecl {
	var out []*FuncDecl
	for _, d := range n.Decls {
		if f, ok := d.(*FuncDecl); ok {
			out = append(out, f)
		}
	}
	return out
}

// Function returns the function definition with the given name and a
// non-nil body, or nil if absent.
func (n *TranslationUnit) Function(name string) *FuncDecl {
	for _, f := range n.Functions() {
		if f.Name == name && f.Body != nil {
			return f
		}
	}
	return nil
}
