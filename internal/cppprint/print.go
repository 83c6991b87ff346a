// Package cppprint renders a cppast tree back into C++ source under a
// configurable surface style (indentation, brace placement, operator
// spacing). Together with the AST rewrites in the transform package it
// forms the source-to-source engine the simulated ChatGPT uses: parse →
// rewrite → reprint in the target style.
package cppprint

import (
	"strings"

	"gptattr/internal/cppast"
)

// Config controls the printed surface form. The zero value prints with
// four-space indents, K&R braces, and spaced operators.
type Config struct {
	// IndentTabs selects tab indentation; IndentWidth (default 4) is
	// used otherwise.
	IndentTabs  bool
	IndentWidth int
	// Allman puts opening braces on their own line.
	Allman bool
	// TightOps omits spaces around binary operators.
	TightOps bool
	// TightCommas omits the space after commas.
	TightCommas bool
	// FunctionalCasts prints casts as double(x) instead of (double)x.
	FunctionalCasts bool
}

func (c Config) indentUnit() string {
	if c.IndentTabs {
		return "\t"
	}
	w := c.IndentWidth
	if w <= 0 {
		w = 4
	}
	return strings.Repeat(" ", w)
}

// Print renders the unit as C++ source.
func Print(tu *cppast.TranslationUnit, cfg Config) string {
	p := &printer{cfg: cfg}
	for i, d := range tu.Decls {
		if fd, ok := d.(*cppast.FuncDecl); ok && i > 0 {
			_ = fd
			p.b.WriteByte('\n')
		}
		p.decl(d)
	}
	return p.b.String()
}

type printer struct {
	cfg   Config
	b     strings.Builder
	level int
}

func (p *printer) line(s string) {
	for i := 0; i < p.level; i++ {
		p.b.WriteString(p.cfg.indentUnit())
	}
	p.b.WriteString(s)
	p.b.WriteByte('\n')
}

func (p *printer) open(header string) {
	switch {
	case header == "":
		p.line("{")
	case p.cfg.Allman:
		p.line(header)
		p.line("{")
	default:
		p.line(header + " {")
	}
	p.level++
}

func (p *printer) close() {
	p.level--
	p.line("}")
}

func (p *printer) sp() string {
	if p.cfg.TightOps {
		return ""
	}
	return " "
}

func (p *printer) comma() string {
	if p.cfg.TightCommas {
		return ","
	}
	return ", "
}

func (p *printer) decl(d cppast.Node) {
	switch n := d.(type) {
	case *cppast.Preproc:
		p.level = 0
		p.line(n.Text)
	case *cppast.UsingDirective:
		p.line(normalizeDirective(n.Text))
	case *cppast.TypedefDecl:
		p.line(normalizeDirective(n.Text))
	case *cppast.FuncDecl:
		p.funcDecl(n)
	case *cppast.VarDecl:
		p.varDecl(n)
	case *cppast.StructDecl:
		p.open(n.Keyword + " " + n.Name)
		for _, m := range n.Members {
			p.stmt(m)
		}
		p.level--
		p.line("};")
	case *cppast.Comment:
		p.printComment(n)
	case *cppast.EmptyStmt:
		// drop stray semicolons
	case *cppast.Unknown:
		p.line(n.Text)
	default:
		p.stmt(d)
	}
}

// normalizeDirective tidies token-joined directives like
// "using namespace std ;" into "using namespace std;".
func normalizeDirective(text string) string {
	s := strings.ReplaceAll(text, " ;", ";")
	s = strings.ReplaceAll(s, " :: ", "::")
	if !strings.HasSuffix(s, ";") {
		s += ";"
	}
	return s
}

func (p *printer) printComment(n *cppast.Comment) {
	if n.Block {
		p.line("/* " + n.Text + " */")
	} else {
		p.line("// " + n.Text)
	}
}

func (p *printer) funcDecl(n *cppast.FuncDecl) {
	params := make([]string, len(n.Params))
	for i, prm := range n.Params {
		t := prm.Type
		sep := " "
		if strings.HasSuffix(t, "&") || strings.HasSuffix(t, "*") {
			sep = ""
		}
		if prm.Name == "" {
			params[i] = t
		} else {
			params[i] = t + sep + prm.Name
		}
	}
	header := n.RetType + " " + n.Name + "(" + strings.Join(params, p.comma()) + ")"
	if n.Body == nil {
		p.line(header + ";")
		return
	}
	p.open(header)
	for _, s := range n.Body.Stmts {
		p.stmt(s)
	}
	p.close()
}

func (p *printer) varDecl(n *cppast.VarDecl) {
	sp := p.sp()
	parts := make([]string, len(n.Names))
	for i, d := range n.Names {
		s := d.Name
		for _, dim := range d.ArrayLen {
			if dim == nil {
				s += "[]"
			} else {
				s += "[" + p.expr(dim, 0) + "]"
			}
		}
		if d.Init != nil {
			if call, ok := d.Init.(*cppast.CallExpr); ok {
				if id, ok := call.Fun.(*cppast.Ident); ok && id.Name == "{}" {
					args := make([]string, len(call.Args))
					for j, a := range call.Args {
						args[j] = p.expr(a, 0)
					}
					s += sp + "=" + sp + "{" + strings.Join(args, p.comma()) + "}"
					parts[i] = s
					continue
				}
			}
			s += sp + "=" + sp + p.expr(d.Init, 1)
		}
		parts[i] = s
	}
	p.line(n.Type + " " + strings.Join(parts, p.comma()) + ";")
}

func (p *printer) stmt(s cppast.Node) {
	switch n := s.(type) {
	case *cppast.Block:
		p.open("")
		for _, st := range n.Stmts {
			p.stmt(st)
		}
		p.close()
	case *cppast.VarDecl:
		p.varDecl(n)
	case *cppast.ExprStmt:
		p.line(p.expr(n.X, 0) + ";")
	case *cppast.If:
		p.ifStmt(n)
	case *cppast.For:
		p.forStmt(n)
	case *cppast.While:
		p.open(p.head("while") + p.expr(n.Cond, 0) + ")")
		p.body(n.Body)
		p.close()
	case *cppast.DoWhile:
		if p.cfg.Allman {
			p.line("do")
			p.line("{")
		} else {
			p.line("do {")
		}
		p.level++
		p.body(n.Body)
		p.level--
		p.line("} while" + p.condSuffix(n.Cond))
	case *cppast.Return:
		if n.Value == nil {
			p.line("return;")
		} else {
			p.line("return " + p.expr(n.Value, 0) + ";")
		}
	case *cppast.Break:
		p.line("break;")
	case *cppast.Continue:
		p.line("continue;")
	case *cppast.Switch:
		p.switchStmt(n)
	case *cppast.EmptyStmt:
		p.line(";")
	case *cppast.Preproc:
		p.line(n.Text)
	case *cppast.UsingDirective, *cppast.TypedefDecl:
		p.decl(n)
	case *cppast.Comment:
		p.printComment(n)
	case *cppast.Unknown:
		p.line(n.Text)
	case *cppast.StructDecl:
		p.decl(n)
	default:
		p.line("/* ? " + s.Kind() + " */")
	}
}

func (p *printer) condSuffix(cond cppast.Node) string {
	if p.cfg.TightOps {
		return "(" + p.expr(cond, 0) + ");"
	}
	return " (" + p.expr(cond, 0) + ");"
}

// head formats a control keyword header opening paren.
func (p *printer) head(word string) string {
	if p.cfg.TightOps {
		return word + "("
	}
	return word + " ("
}

// body prints a statement as a control-flow body, bracing blocks and
// indenting single statements.
func (p *printer) body(s cppast.Node) {
	if b, ok := s.(*cppast.Block); ok {
		for _, st := range b.Stmts {
			p.stmt(st)
		}
		return
	}
	p.stmt(s)
}

func (p *printer) ifStmt(n *cppast.If) {
	header := p.head("if") + p.expr(n.Cond, 0) + ")"
	_, thenIsBlock := n.Then.(*cppast.Block)
	if !thenIsBlock && n.Else == nil {
		p.line(header)
		p.level++
		p.stmt(n.Then)
		p.level--
		return
	}
	p.open(header)
	p.body(n.Then)
	if n.Else == nil {
		p.close()
		return
	}
	if p.cfg.Allman {
		p.close()
		if elseIf, ok := n.Else.(*cppast.If); ok {
			p.elseIfChain(elseIf)
			return
		}
		p.open("else")
		p.body(n.Else)
		p.close()
		return
	}
	p.level--
	if elseIf, ok := n.Else.(*cppast.If); ok {
		p.line("} else " + p.head("if") + p.expr(elseIf.Cond, 0) + ") {")
		p.level++
		p.body(elseIf.Then)
		if elseIf.Else != nil {
			p.level--
			p.line("} else {")
			p.level++
			p.body(elseIf.Else)
		}
		p.close()
		return
	}
	p.line("} else {")
	p.level++
	p.body(n.Else)
	p.close()
}

// elseIfChain prints "else if" chains in Allman style.
func (p *printer) elseIfChain(n *cppast.If) {
	p.open("else " + p.head("if") + p.expr(n.Cond, 0) + ")")
	p.body(n.Then)
	p.close()
	if n.Else == nil {
		return
	}
	if elseIf, ok := n.Else.(*cppast.If); ok {
		p.elseIfChain(elseIf)
		return
	}
	p.open("else")
	p.body(n.Else)
	p.close()
}

func (p *printer) forStmt(n *cppast.For) {
	var init string
	switch i := n.Init.(type) {
	case nil:
	case *cppast.VarDecl:
		init = p.varDeclText(i)
	case *cppast.ExprStmt:
		init = p.expr(i.X, 0)
	default:
		init = "/*?*/"
	}
	cond := ""
	if n.Cond != nil {
		cond = p.expr(n.Cond, 0)
	}
	post := ""
	if n.Post != nil {
		post = p.expr(n.Post, 0)
	}
	header := p.head("for") + init + "; " + cond + "; " + post + ")"
	if p.cfg.TightOps {
		header = p.head("for") + init + ";" + cond + ";" + post + ")"
	}
	p.open(header)
	p.body(n.Body)
	p.close()
}

// varDeclText renders a VarDecl without trailing semicolon or newline
// (for for-init clauses).
func (p *printer) varDeclText(n *cppast.VarDecl) string {
	sp := p.sp()
	parts := make([]string, len(n.Names))
	for i, d := range n.Names {
		s := d.Name
		if d.Init != nil {
			s += sp + "=" + sp + p.expr(d.Init, 1)
		}
		parts[i] = s
	}
	return n.Type + " " + strings.Join(parts, p.comma())
}

func (p *printer) switchStmt(n *cppast.Switch) {
	p.open(p.head("switch") + p.expr(n.Cond, 0) + ")")
	for _, c := range n.Cases {
		if c.Value == nil {
			p.line("default:")
		} else {
			p.line("case " + p.expr(c.Value, 0) + ":")
		}
		p.level++
		for _, st := range c.Stmts {
			p.stmt(st)
		}
		p.level--
	}
	p.close()
}

// exprPrec gives the precedence used for parenthesization; mirrors the
// parser's table.
var exprPrec = map[string]int{
	"=": 1, "+=": 1, "-=": 1, "*=": 1, "/=": 1, "%=": 1,
	"&=": 1, "|=": 1, "^=": 1, "<<=": 1, ">>=": 1,
	",":  0,
	"||": 3, "&&": 4,
	"|": 5, "^": 6, "&": 7,
	"==": 8, "!=": 8,
	"<": 9, ">": 9, "<=": 9, ">=": 9,
	"<<": 10, ">>": 10,
	"+": 11, "-": 11,
	"*": 12, "/": 12, "%": 12,
}

func (p *printer) expr(e cppast.Node, parent int) string {
	sp := p.sp()
	switch n := e.(type) {
	case *cppast.Ident:
		return n.Name
	case *cppast.Lit:
		return n.Text
	case *cppast.ParenExpr:
		return "(" + p.expr(n.X, 0) + ")"
	case *cppast.BinaryExpr:
		prec := exprPrec[n.Op]
		var l, r string
		switch n.Op {
		case "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=":
			// right-associative
			l = p.expr(n.L, prec+1)
			r = p.expr(n.R, prec)
		default:
			l = p.expr(n.L, prec)
			r = p.expr(n.R, prec+1)
		}
		gap := sp
		// Stream operators always read better with spaces; so do
		// logical connectives.
		if n.Op == "<<" || n.Op == ">>" || n.Op == "&&" || n.Op == "||" {
			gap = " "
		}
		if n.Op == "," {
			s := p.expr(n.L, 1) + p.comma() + p.expr(n.R, 1)
			if parent > 0 {
				return "(" + s + ")"
			}
			return s
		}
		leftGap, rightGap := gap, gap
		if gap == "" {
			// Prevent token gluing under tight spacing: "a--8" would
			// re-tokenize as a decrement, "a- -b" is required.
			if len(r) > 0 && n.Op[len(n.Op)-1] == r[0] {
				rightGap = " "
			}
			if len(l) > 0 && n.Op[0] == l[len(l)-1] {
				leftGap = " "
			}
		}
		s := l + leftGap + n.Op + rightGap + r
		if prec < parent {
			return "(" + s + ")"
		}
		return s
	case *cppast.UnaryExpr:
		if n.Postfix {
			return p.expr(n.X, 14) + n.Op
		}
		operand := p.expr(n.X, 13)
		// "-(-x)" printed without parens must not become "--x".
		if len(operand) > 0 && n.Op[len(n.Op)-1] == operand[0] {
			return n.Op + " " + operand
		}
		return n.Op + operand
	case *cppast.TernaryExpr:
		s := p.expr(n.Cond, 3) + sp + "?" + sp + p.expr(n.Then, 2) + sp + ":" + sp + p.expr(n.Else, 2)
		if parent > 2 {
			return "(" + s + ")"
		}
		return s
	case *cppast.CallExpr:
		args := make([]string, len(n.Args))
		for i, a := range n.Args {
			args[i] = p.expr(a, 1)
		}
		if id, ok := n.Fun.(*cppast.Ident); ok && id.Name == "{}" {
			return "{" + strings.Join(args, p.comma()) + "}"
		}
		return p.expr(n.Fun, 14) + "(" + strings.Join(args, p.comma()) + ")"
	case *cppast.IndexExpr:
		return p.expr(n.X, 14) + "[" + p.expr(n.Index, 0) + "]"
	case *cppast.MemberExpr:
		op := "."
		if n.Arrow {
			op = "->"
		}
		return p.expr(n.X, 14) + op + n.Sel
	case *cppast.CastExpr:
		if p.cfg.FunctionalCasts && isWordType(n.Type) {
			return n.Type + "(" + p.expr(n.X, 0) + ")"
		}
		return "(" + n.Type + ")" + p.castOperand(n.X)
	default:
		return "/*?expr " + e.Kind() + "*/"
	}
}

// isWordType reports whether a functional cast T(x) is syntactically
// valid for the type (single-word types only).
func isWordType(t string) bool { return !strings.Contains(t, " ") }

func (p *printer) castOperand(e cppast.Node) string {
	switch e.(type) {
	case *cppast.Ident, *cppast.Lit, *cppast.IndexExpr, *cppast.ParenExpr, *cppast.CallExpr, *cppast.MemberExpr:
		return p.expr(e, 0)
	default:
		return "(" + p.expr(e, 0) + ")"
	}
}
