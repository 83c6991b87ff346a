package cppast

import (
	"strings"

	"gptattr/internal/cpptok"
)

// Parse builds a TranslationUnit from C++ source. It never fails: any
// region it cannot understand becomes an Unknown node. The returned
// error reports the first lexical error, if any, for callers that care.
func Parse(src string) (*TranslationUnit, error) {
	toks, err := cpptok.Scan(src)
	return ParseTokens(cpptok.StripComments(toks), NewArena()), err
}

// MustParse is Parse for trusted input, discarding the lexical error.
func MustParse(src string) *TranslationUnit {
	tu, _ := Parse(src)
	return tu
}

// ParseTokens parses a comment-free token stream (ending in KindEOF,
// as Scan produces) with all tree memory drawn from a. This is the hot
// path: with a pooled arena and a reused token buffer, steady-state
// parsing performs no allocation. The tree is valid until a.Reset; a
// nil arena means a fresh one per call, yielding an ordinary GC-owned
// tree as Parse does.
func ParseTokens(toks []cpptok.Token, a *Arena) *TranslationUnit {
	if a == nil {
		a = NewArena()
	}
	if len(toks) == 0 || toks[len(toks)-1].Kind != cpptok.KindEOF {
		toks = append(toks, cpptok.Token{Kind: cpptok.KindEOF, Line: 1, Col: 1})
	}
	a.ps = parser{toks: toks, a: a}
	return a.ps.parseUnit()
}

type parser struct {
	toks []cpptok.Token
	pos  int
	a    *Arena
}

func (p *parser) cur() cpptok.Token { return p.toks[p.pos] }
func (p *parser) at(i int) cpptok.Token {
	if p.pos+i >= len(p.toks) {
		return p.toks[len(p.toks)-1] // EOF
	}
	return p.toks[p.pos+i]
}
func (p *parser) eof() bool { return p.cur().Kind == cpptok.KindEOF }
func (p *parser) next() cpptok.Token {
	t := p.cur()
	if !p.eof() {
		p.pos++
	}
	return t
}

// accept consumes the current token if it matches text.
func (p *parser) accept(text string) bool {
	if p.cur().Is(text) {
		p.pos++
		return true
	}
	return false
}

// expect consumes a token with the given text, or reports failure.
func (p *parser) expect(text string) bool { return p.accept(text) }

func (p *parser) here() pos { return pos{line: p.cur().Line} }

// takeNodes moves the nodes pushed since mark off the scratch stack
// into arena backing.
func (p *parser) takeNodes(mark int) []Node {
	out := p.a.nodeBack.take(p.a.nodeStk[mark:])
	p.a.nodeStk = pop(p.a.nodeStk, mark)
	return out
}

func (p *parser) takeParams(mark int) []*Param {
	out := p.a.paramBack.take(p.a.paramStk[mark:])
	p.a.paramStk = pop(p.a.paramStk, mark)
	return out
}

func (p *parser) takeDecls(mark int) []*Declarator {
	out := p.a.declBack.take(p.a.declStk[mark:])
	p.a.declStk = pop(p.a.declStk, mark)
	return out
}

func (p *parser) takeCases(mark int) []*SwitchCase {
	out := p.a.caseBack.take(p.a.caseStk[mark:])
	p.a.caseStk = pop(p.a.caseStk, mark)
	return out
}

// concat joins parts through the arena's byte scratch and intern table.
func (p *parser) concat(parts ...string) string {
	a := p.a
	a.buf = a.buf[:0]
	for _, s := range parts {
		a.buf = append(a.buf, s...)
	}
	return a.internBytes(a.buf)
}

// textBetween joins token texts in [from, to) with single spaces.
func (p *parser) textBetween(from, to int) string {
	a := p.a
	a.buf = a.buf[:0]
	for i := from; i < to && i < len(p.toks); i++ {
		if i > from {
			a.buf = append(a.buf, ' ')
		}
		a.buf = append(a.buf, p.toks[i].Text...)
	}
	return a.internBytes(a.buf)
}

// skipToRecovery advances past the next ';' at brace depth 0, past a
// balanced '}' region, or up to (not including) a token that plausibly
// starts a fresh declaration, and returns the raw text skipped.
func (p *parser) skipToRecovery() string {
	start := p.pos
	depth := 0
	for !p.eof() {
		if depth == 0 && p.pos > start && p.startsDecl() {
			return p.textBetween(start, p.pos)
		}
		t := p.next()
		switch {
		case t.Is("{"):
			depth++
		case t.Is("}"):
			depth--
			if depth <= 0 {
				return p.textBetween(start, p.pos)
			}
		case t.Is(";") && depth == 0:
			return p.textBetween(start, p.pos)
		}
	}
	return p.textBetween(start, p.pos)
}

// startsDecl reports whether the current token plausibly begins a new
// top-level declaration, used to bound error recovery.
func (p *parser) startsDecl() bool {
	t := p.cur()
	if t.Kind == cpptok.KindPreproc {
		return true
	}
	if t.Kind != cpptok.KindKeyword {
		return false
	}
	return typeKeywords[t.Text] || t.Text == "using" || t.Text == "typedef" ||
		t.Text == "struct" || t.Text == "class" || t.Text == "template"
}

func (p *parser) parseUnit() *TranslationUnit {
	tu := alloc(&p.a.units)
	*tu = TranslationUnit{pos: p.here()}
	mark := len(p.a.nodeStk)
	for !p.eof() {
		d := p.parseTopDecl()
		if d != nil {
			p.a.nodeStk = append(p.a.nodeStk, d)
		}
	}
	tu.Decls = p.takeNodes(mark)
	return tu
}

func (p *parser) parseTopDecl() Node {
	t := p.cur()
	switch {
	case t.Kind == cpptok.KindPreproc:
		p.next()
		n := alloc(&p.a.preprocs)
		*n = Preproc{pos: pos{t.Line}, Text: t.Text}
		return n
	case t.Is("using"):
		start := p.pos
		p.skipPastSemi()
		n := alloc(&p.a.usings)
		*n = UsingDirective{pos: pos{t.Line}, Text: p.textBetween(start, p.pos)}
		return n
	case t.Is("typedef"):
		start := p.pos
		p.skipPastSemi()
		n := alloc(&p.a.typedefs)
		*n = TypedefDecl{pos: pos{t.Line}, Text: p.textBetween(start, p.pos)}
		return n
	case t.Is("struct"), t.Is("class"):
		return p.parseStruct()
	case t.Is(";"):
		p.next()
		n := alloc(&p.a.empties)
		*n = EmptyStmt{pos: pos{t.Line}}
		return n
	case t.Is("template"):
		// template<...> followed by a function or struct; skip the
		// template header and parse what follows.
		p.next()
		if p.cur().Is("<") {
			p.skipAngles()
		}
		return p.parseTopDecl()
	default:
		return p.parseFuncOrVar()
	}
}

func (p *parser) skipPastSemi() {
	for !p.eof() {
		if p.next().Is(";") {
			return
		}
	}
}

// skipAngles consumes a balanced <...> group starting at '<'.
func (p *parser) skipAngles() {
	depth := 0
	for !p.eof() {
		t := p.next()
		switch {
		case t.Is("<"):
			depth++
		case t.Is(">"):
			depth--
			if depth == 0 {
				return
			}
		case t.Is(">>"):
			depth -= 2
			if depth <= 0 {
				return
			}
		case t.Is(";"), t.Is("{"):
			// Not actually a template argument list; bail out.
			p.pos--
			return
		}
	}
}

func (p *parser) parseStruct() Node {
	at := p.here()
	kw := p.next().Text // struct or class
	name := ""
	if p.cur().Kind == cpptok.KindIdent {
		name = p.next().Text
	}
	sd := alloc(&p.a.structs)
	*sd = StructDecl{pos: at, Keyword: kw, Name: name}
	if !p.accept("{") {
		// Forward declaration or variable of struct type; treat the
		// rest as unknown.
		start := p.pos
		p.skipPastSemi()
		rest := p.textBetween(start, p.pos)
		n := alloc(&p.a.unknowns)
		*n = Unknown{pos: at, Text: p.concat(kw, " ", name, " ", rest)}
		return n
	}
	mark := len(p.a.nodeStk)
	for !p.eof() && !p.cur().Is("}") {
		if p.cur().Is("public") || p.cur().Is("private") || p.cur().Is("protected") {
			p.next()
			p.accept(":")
			continue
		}
		p.a.nodeStk = append(p.a.nodeStk, p.parseStmt())
	}
	sd.Members = p.takeNodes(mark)
	p.expect("}")
	p.accept(";")
	return sd
}

// typeKeywords are keywords that can begin or extend a type name.
var typeKeywords = map[string]bool{
	"int": true, "long": true, "short": true, "char": true,
	"double": true, "float": true, "bool": true, "void": true,
	"unsigned": true, "signed": true, "auto": true, "wchar_t": true,
	"char16_t": true, "char32_t": true,
}

// typeQualifiers may precede a type.
var typeQualifiers = map[string]bool{
	"const": true, "static": true, "constexpr": true, "inline": true,
	"volatile": true, "register": true, "extern": true, "mutable": true,
}

// joinParts joins the type-name fragments pushed since mark with
// single spaces (the strings.Join of the old code) and pops them. A
// single fragment is returned as-is: the common "int x" case touches
// no scratch at all.
func (p *parser) joinParts(mark int) string {
	a := p.a
	parts := a.parts[mark:]
	var s string
	switch len(parts) {
	case 0:
		s = ""
	case 1:
		s = parts[0]
	default:
		a.buf = a.buf[:0]
		for i, part := range parts {
			if i > 0 {
				a.buf = append(a.buf, ' ')
			}
			a.buf = append(a.buf, part...)
		}
		s = a.internBytes(a.buf)
	}
	a.parts = pop(a.parts, mark)
	return s
}

// qualifiedIdent consumes an ident(::ident)*(<...>)? chain starting
// with the already-consumed first segment, composing the name through
// arena scratch. The bare-ident fast path returns the token text
// unchanged.
func (p *parser) qualifiedIdent(first string, withTemplate bool) string {
	if !p.cur().Is("::") && !(withTemplate && p.cur().Is("<")) {
		return first
	}
	a := p.a
	a.buf2 = append(a.buf2[:0], first...)
	composed := false
	for p.cur().Is("::") && p.at(1).Kind == cpptok.KindIdent {
		p.next()
		a.buf2 = append(a.buf2, "::"...)
		a.buf2 = append(a.buf2, p.next().Text...)
		composed = true
	}
	if withTemplate && p.cur().Is("<") {
		tplStart := p.pos
		if tpl, ok := p.tryParseTemplateArgs(); ok {
			a.buf2 = append(a.buf2, tpl...)
			composed = true
		} else {
			p.pos = tplStart
		}
	}
	if !composed {
		return first
	}
	return a.internBytes(a.buf2)
}

// tryParseType attempts to parse a type at the current position. On
// success it returns the normalized type text and true, leaving the
// parser after the type. On failure it restores the position.
func (p *parser) tryParseType() (string, bool) {
	start := p.pos
	a := p.a
	mark := len(a.parts)
	seenBase := false
	for {
		t := p.cur()
		switch {
		case t.Kind == cpptok.KindKeyword && typeQualifiers[t.Text]:
			a.parts = append(a.parts, t.Text)
			p.next()
		case t.Kind == cpptok.KindKeyword && typeKeywords[t.Text]:
			a.parts = append(a.parts, t.Text)
			seenBase = true
			p.next()
			// "long long", "unsigned int", etc. continue the loop.
		case !seenBase && t.Kind == cpptok.KindIdent:
			// Possibly a user/library type: ident(::ident)*(<...>)?
			p.next()
			a.parts = append(a.parts, p.qualifiedIdent(t.Text, true))
			seenBase = true
		default:
			goto post
		}
	}
post:
	if !seenBase {
		p.pos = start
		a.parts = pop(a.parts, mark)
		return "", false
	}
	for p.cur().Is("*") || p.cur().Is("&") || p.cur().Is("const") {
		a.parts = append(a.parts, p.next().Text)
	}
	return p.joinParts(mark), true
}

// tryParseTemplateArgs parses a balanced template argument list at '<',
// returning its text (including angle brackets).
func (p *parser) tryParseTemplateArgs() (string, bool) {
	if !p.cur().Is("<") {
		return "", false
	}
	start := p.pos
	depth := 0
	for !p.eof() {
		t := p.cur()
		switch {
		case t.Is("<"):
			depth++
		case t.Is(">"):
			depth--
		case t.Is(">>"):
			depth -= 2
		case t.Is(";"), t.Is("{"), t.Is(")"):
			p.pos = start
			return "", false
		case t.Kind == cpptok.KindEOF:
			p.pos = start
			return "", false
		}
		p.next()
		if depth <= 0 {
			a := p.a
			a.buf = a.buf[:0]
			for i := start; i < p.pos; i++ {
				a.buf = append(a.buf, p.toks[i].Text...)
			}
			return a.internBytes(a.buf), true
		}
	}
	p.pos = start
	return "", false
}

// parseFuncOrVar parses a top-level function definition or global
// variable declaration.
func (p *parser) parseFuncOrVar() Node {
	at := p.here()
	typ, ok := p.tryParseType()
	if !ok || p.cur().Kind != cpptok.KindIdent {
		n := alloc(&p.a.unknowns)
		*n = Unknown{pos: at, Text: p.skipToRecovery()}
		return n
	}
	name := p.next().Text
	if p.cur().Is("(") {
		return p.parseFuncRest(at, typ, name)
	}
	return p.parseVarDeclRest(at, typ, name)
}

func (p *parser) parseFuncRest(at pos, retType, name string) Node {
	p.expect("(")
	f := alloc(&p.a.funcs)
	*f = FuncDecl{pos: at, RetType: retType, Name: name}
	mark := len(p.a.paramStk)
	for !p.eof() && !p.cur().Is(")") {
		pp := p.here()
		ptype, ok := p.tryParseType()
		if !ok {
			// void f() or unparseable parameter list.
			if p.cur().Is("void") {
				p.next()
				continue
			}
			before := p.pos
			p.skipToCommaOrClose()
			if !p.accept(",") && p.pos == before {
				// Stray closer (e.g. ']' at depth 0): consume it or
				// the parameter loop never advances.
				p.next()
			}
			continue
		}
		ref := strings.HasSuffix(ptype, "&")
		pname := ""
		if p.cur().Kind == cpptok.KindIdent {
			pname = p.next().Text
		}
		// Array parameter or default value.
		for p.cur().Is("[") {
			p.skipBalanced("[", "]")
		}
		if p.accept("=") {
			p.parseAssign()
		}
		prm := alloc(&p.a.params)
		*prm = Param{pos: pp, Type: ptype, Name: pname, Ref: ref}
		p.a.paramStk = append(p.a.paramStk, prm)
		if !p.accept(",") {
			break
		}
	}
	f.Params = p.takeParams(mark)
	p.expect(")")
	if p.accept(";") {
		return f // prototype
	}
	if p.cur().Is("{") {
		f.Body = p.parseBlock()
		return f
	}
	rest := p.skipToRecovery()
	n := alloc(&p.a.unknowns)
	*n = Unknown{pos: at, Text: p.concat(retType, " ", name, "(...)", rest)}
	return n
}

func (p *parser) skipToCommaOrClose() {
	depth := 0
	for !p.eof() {
		t := p.cur()
		switch {
		case t.Is("("), t.Is("["):
			depth++
		case t.Is(")"), t.Is("]"):
			if depth == 0 {
				return
			}
			depth--
		case t.Is(",") && depth == 0:
			return
		}
		p.next()
	}
}

func (p *parser) skipBalanced(open, close string) {
	if !p.accept(open) {
		return
	}
	depth := 1
	for !p.eof() && depth > 0 {
		t := p.next()
		if t.Is(open) {
			depth++
		} else if t.Is(close) {
			depth--
		}
	}
}

func (p *parser) parseVarDeclRest(at pos, typ, firstName string) Node {
	vd := alloc(&p.a.vardecls)
	*vd = VarDecl{pos: at, Type: typ}
	declMark := len(p.a.declStk)
	name := firstName
	for {
		d := alloc(&p.a.decltors)
		*d = Declarator{pos: p.here(), Name: name}
		alMark := len(p.a.nodeStk)
		for p.cur().Is("[") {
			p.next()
			if !p.cur().Is("]") {
				p.a.nodeStk = append(p.a.nodeStk, p.parseAssign())
			} else {
				p.a.nodeStk = append(p.a.nodeStk, nil)
			}
			p.expect("]")
		}
		d.ArrayLen = p.takeNodes(alMark)
		switch {
		case p.accept("="):
			if p.cur().Is("{") {
				d.Init = p.parseBraceInit()
			} else {
				d.Init = p.parseAssign()
			}
		case p.cur().Is("("):
			// Constructor-style init: T x(expr).
			p.next()
			if !p.cur().Is(")") {
				d.Init = p.parseExpr()
			}
			p.expect(")")
		case p.cur().Is("{"):
			d.Init = p.parseBraceInit()
		}
		p.a.declStk = append(p.a.declStk, d)
		if !p.accept(",") {
			break
		}
		if p.cur().Kind != cpptok.KindIdent {
			break
		}
		name = p.next().Text
	}
	vd.Names = p.takeDecls(declMark)
	if !p.accept(";") {
		rest := p.skipToRecovery()
		n := alloc(&p.a.unknowns)
		*n = Unknown{pos: at, Text: p.concat(typ, " ... ", rest)}
		return n
	}
	return vd
}

// parseBraceInit parses a {a, b, c} initializer into a CallExpr with a
// synthetic "{}" function, preserving the element expressions.
func (p *parser) parseBraceInit() Node {
	at := p.here()
	p.expect("{")
	fun := alloc(&p.a.idents)
	*fun = Ident{pos: at, Name: "{}"}
	call := alloc(&p.a.calls)
	*call = CallExpr{pos: at, Fun: fun}
	mark := len(p.a.nodeStk)
	for !p.eof() && !p.cur().Is("}") {
		p.a.nodeStk = append(p.a.nodeStk, p.parseAssign())
		if !p.accept(",") {
			break
		}
	}
	call.Args = p.takeNodes(mark)
	p.expect("}")
	return call
}

func (p *parser) parseBlock() *Block {
	b := alloc(&p.a.blocks)
	*b = Block{pos: p.here()}
	p.expect("{")
	mark := len(p.a.nodeStk)
	for !p.eof() && !p.cur().Is("}") {
		p.a.nodeStk = append(p.a.nodeStk, p.parseStmt())
	}
	b.Stmts = p.takeNodes(mark)
	p.expect("}")
	return b
}

// looksLikeDecl reports whether the current position begins a variable
// declaration rather than an expression.
func (p *parser) looksLikeDecl() bool {
	t := p.cur()
	if t.Kind == cpptok.KindKeyword && (typeKeywords[t.Text] || typeQualifiers[t.Text]) {
		return true
	}
	if t.Kind != cpptok.KindIdent {
		return false
	}
	// ident ident  => decl (e.g. "ll x", "string s")
	// ident<...> ident => decl (e.g. "vector<int> v")
	// ident::ident ident => decl (e.g. "std::string s")
	save := p.pos
	defer func() { p.pos = save }()
	if _, ok := p.tryParseType(); !ok {
		return false
	}
	return p.cur().Kind == cpptok.KindIdent &&
		(p.at(1).Is(";") || p.at(1).Is("=") || p.at(1).Is(",") ||
			p.at(1).Is("[") || p.at(1).Is("(") || p.at(1).Is("{"))
}

func (p *parser) parseStmt() Node {
	at := p.here()
	t := p.cur()
	switch {
	case t.Kind == cpptok.KindPreproc:
		p.next()
		n := alloc(&p.a.preprocs)
		*n = Preproc{pos: pos{t.Line}, Text: t.Text}
		return n
	case t.Is("{"):
		return p.parseBlock()
	case t.Is(";"):
		p.next()
		n := alloc(&p.a.empties)
		*n = EmptyStmt{pos: at}
		return n
	case t.Is("if"):
		return p.parseIf()
	case t.Is("for"):
		return p.parseFor()
	case t.Is("while"):
		return p.parseWhile()
	case t.Is("do"):
		return p.parseDoWhile()
	case t.Is("switch"):
		return p.parseSwitch()
	case t.Is("return"):
		p.next()
		r := alloc(&p.a.returns)
		*r = Return{pos: at}
		if !p.cur().Is(";") {
			r.Value = p.parseExpr()
		}
		if !p.accept(";") {
			rest := p.skipToRecovery()
			n := alloc(&p.a.unknowns)
			*n = Unknown{pos: at, Text: p.concat("return ", rest)}
			return n
		}
		return r
	case t.Is("break"):
		p.next()
		p.accept(";")
		n := alloc(&p.a.breaks)
		*n = Break{pos: at}
		return n
	case t.Is("continue"):
		p.next()
		p.accept(";")
		n := alloc(&p.a.conts)
		*n = Continue{pos: at}
		return n
	case t.Is("using"):
		start := p.pos
		p.skipPastSemi()
		n := alloc(&p.a.usings)
		*n = UsingDirective{pos: at, Text: p.textBetween(start, p.pos)}
		return n
	case t.Is("typedef"):
		start := p.pos
		p.skipPastSemi()
		n := alloc(&p.a.typedefs)
		*n = TypedefDecl{pos: at, Text: p.textBetween(start, p.pos)}
		return n
	case t.Is("struct"), t.Is("class"):
		return p.parseStruct()
	case p.looksLikeDecl():
		typ, _ := p.tryParseType()
		if p.cur().Kind != cpptok.KindIdent {
			rest := p.skipToRecovery()
			n := alloc(&p.a.unknowns)
			*n = Unknown{pos: at, Text: p.concat(typ, " ", rest)}
			return n
		}
		name := p.next().Text
		return p.parseVarDeclRest(at, typ, name)
	default:
		x := p.parseExpr()
		if x == nil {
			n := alloc(&p.a.unknowns)
			*n = Unknown{pos: at, Text: p.skipToRecovery()}
			return n
		}
		if !p.accept(";") {
			n := alloc(&p.a.unknowns)
			*n = Unknown{pos: at, Text: p.skipToRecovery()}
			return n
		}
		n := alloc(&p.a.exprstmts)
		*n = ExprStmt{pos: at, X: x}
		return n
	}
}

func (p *parser) parseParenCond() Node {
	if !p.expect("(") {
		return nil
	}
	cond := p.parseExpr()
	p.expect(")")
	return cond
}

func (p *parser) parseIf() Node {
	at := p.here()
	p.expect("if")
	n := alloc(&p.a.ifs)
	*n = If{pos: at, Cond: p.parseParenCond()}
	n.Then = p.parseStmt()
	if p.accept("else") {
		n.Else = p.parseStmt()
	}
	return n
}

func (p *parser) parseFor() Node {
	at := p.here()
	p.expect("for")
	p.expect("(")
	n := alloc(&p.a.fors)
	*n = For{pos: at}
	// Init clause.
	if !p.cur().Is(";") {
		if p.looksLikeDecl() {
			typ, _ := p.tryParseType()
			name := ""
			if p.cur().Kind == cpptok.KindIdent {
				name = p.next().Text
			}
			// Range-based for: for (auto x : xs)
			if p.cur().Is(":") {
				p.next()
				rangeExpr := p.parseExpr()
				p.expect(")")
				body := p.parseStmt()
				// Model as a While over an opaque range condition so
				// the tree still records a loop.
				d := alloc(&p.a.decltors)
				*d = Declarator{pos: at, Name: name}
				declMark := len(p.a.declStk)
				p.a.declStk = append(p.a.declStk, d)
				vd := alloc(&p.a.vardecls)
				*vd = VarDecl{pos: at, Type: typ, Names: p.takeDecls(declMark)}
				n.Init = vd
				n.Cond = rangeExpr
				n.Body = body
				return n
			}
			n.Init = p.parseVarDeclRest(at, typ, name)
			// parseVarDeclRest consumed the ';'.
		} else {
			es := alloc(&p.a.exprstmts)
			*es = ExprStmt{pos: at, X: p.parseExpr()}
			n.Init = es
			p.expect(";")
		}
	} else {
		p.next()
	}
	if !p.cur().Is(";") {
		n.Cond = p.parseExpr()
	}
	p.expect(";")
	if !p.cur().Is(")") {
		n.Post = p.parseExpr()
	}
	p.expect(")")
	n.Body = p.parseStmt()
	return n
}

func (p *parser) parseWhile() Node {
	at := p.here()
	p.expect("while")
	n := alloc(&p.a.whiles)
	*n = While{pos: at, Cond: p.parseParenCond()}
	n.Body = p.parseStmt()
	return n
}

func (p *parser) parseDoWhile() Node {
	at := p.here()
	p.expect("do")
	n := alloc(&p.a.dos)
	*n = DoWhile{pos: at}
	n.Body = p.parseStmt()
	p.expect("while")
	n.Cond = p.parseParenCond()
	p.accept(";")
	return n
}

func (p *parser) parseSwitch() Node {
	at := p.here()
	p.expect("switch")
	n := alloc(&p.a.switches)
	*n = Switch{pos: at, Cond: p.parseParenCond()}
	if !p.expect("{") {
		return n
	}
	caseMark := len(p.a.caseStk)
	stmtMark := len(p.a.nodeStk)
	var case_ *SwitchCase
	closeCase := func() {
		if case_ != nil {
			case_.Stmts = p.takeNodes(stmtMark)
		}
	}
	for !p.eof() && !p.cur().Is("}") {
		switch {
		case p.cur().Is("case"):
			closeCase()
			p.next()
			case_ = alloc(&p.a.cases)
			*case_ = SwitchCase{pos: p.here(), Value: p.parseExpr()}
			p.expect(":")
			p.a.caseStk = append(p.a.caseStk, case_)
			stmtMark = len(p.a.nodeStk)
		case p.cur().Is("default"):
			closeCase()
			p.next()
			p.expect(":")
			case_ = alloc(&p.a.cases)
			*case_ = SwitchCase{pos: p.here()}
			p.a.caseStk = append(p.a.caseStk, case_)
			stmtMark = len(p.a.nodeStk)
		default:
			s := p.parseStmt()
			if case_ == nil {
				case_ = alloc(&p.a.cases)
				*case_ = SwitchCase{pos: p.here()}
				p.a.caseStk = append(p.a.caseStk, case_)
				stmtMark = len(p.a.nodeStk)
			}
			p.a.nodeStk = append(p.a.nodeStk, s)
		}
	}
	closeCase()
	p.expect("}")
	n.Cases = p.takeCases(caseMark)
	return n
}

// --- expressions ---

// binaryPrec maps binary operators to precedence; higher binds tighter.
// Assignment (prec 1) and ternary (prec 2) are right-associative.
var binaryPrec = map[string]int{
	"=": 1, "+=": 1, "-=": 1, "*=": 1, "/=": 1, "%=": 1,
	"&=": 1, "|=": 1, "^=": 1, "<<=": 1, ">>=": 1,
	"||": 3, "&&": 4,
	"|": 5, "^": 6, "&": 7,
	"==": 8, "!=": 8,
	"<": 9, ">": 9, "<=": 9, ">=": 9,
	"<<": 10, ">>": 10,
	"+": 11, "-": 11,
	"*": 12, "/": 12, "%": 12,
}

// parseExpr parses a full expression including the comma operator.
func (p *parser) parseExpr() Node {
	x := p.parseAssign()
	for p.cur().Is(",") {
		at := p.here()
		p.next()
		y := p.parseAssign()
		if y == nil {
			return x
		}
		b := alloc(&p.a.binaries)
		*b = BinaryExpr{pos: at, Op: ",", L: x, R: y}
		x = b
	}
	return x
}

// parseAssign parses an assignment-level expression (no top-level
// commas), which is also the argument/initializer grammar production.
func (p *parser) parseAssign() Node { return p.parseBinary(1) }

func (p *parser) parseBinary(minPrec int) Node {
	x := p.parseUnary()
	if x == nil {
		return nil
	}
	for {
		t := p.cur()
		if t.Kind != cpptok.KindPunct {
			break
		}
		// Ternary has precedence 2.
		if t.Text == "?" && minPrec <= 2 {
			at := p.here()
			p.next()
			then := p.parseAssign()
			p.expect(":")
			els := p.parseBinary(2)
			tn := alloc(&p.a.ternaries)
			*tn = TernaryExpr{pos: at, Cond: x, Then: then, Else: els}
			x = tn
			continue
		}
		prec, ok := binaryPrec[t.Text]
		if !ok || prec < minPrec {
			break
		}
		at := p.here()
		p.next()
		nextMin := prec + 1
		if prec == 1 { // right-associative assignment
			nextMin = prec
		}
		y := p.parseBinary(nextMin)
		if y == nil {
			return x
		}
		b := alloc(&p.a.binaries)
		*b = BinaryExpr{pos: at, Op: t.Text, L: x, R: y}
		x = b
	}
	return x
}

func (p *parser) parseUnary() Node {
	t := p.cur()
	at := p.here()
	switch {
	case t.Is("+"), t.Is("-"), t.Is("!"), t.Is("~"), t.Is("++"), t.Is("--"), t.Is("*"), t.Is("&"):
		p.next()
		x := p.parseUnary()
		if x == nil {
			return nil
		}
		u := alloc(&p.a.unaries)
		*u = UnaryExpr{pos: at, Op: t.Text, X: x}
		return u
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() Node {
	x := p.parsePrimary()
	if x == nil {
		return nil
	}
	for {
		t := p.cur()
		at := p.here()
		switch {
		case t.Is("("):
			p.next()
			call := alloc(&p.a.calls)
			*call = CallExpr{pos: at, Fun: x}
			mark := len(p.a.nodeStk)
			for !p.eof() && !p.cur().Is(")") {
				arg := p.parseAssign()
				if arg == nil {
					break
				}
				p.a.nodeStk = append(p.a.nodeStk, arg)
				if !p.accept(",") {
					break
				}
			}
			call.Args = p.takeNodes(mark)
			p.expect(")")
			x = call
		case t.Is("["):
			p.next()
			idx := p.parseExpr()
			p.expect("]")
			ix := alloc(&p.a.indexes)
			*ix = IndexExpr{pos: at, X: x, Index: idx}
			x = ix
		case t.Is("."), t.Is("->"):
			arrow := t.Text == "->"
			p.next()
			sel := ""
			if p.cur().Kind == cpptok.KindIdent {
				sel = p.next().Text
			}
			m := alloc(&p.a.members)
			*m = MemberExpr{pos: at, X: x, Sel: sel, Arrow: arrow}
			x = m
		case t.Is("++"), t.Is("--"):
			p.next()
			u := alloc(&p.a.unaries)
			*u = UnaryExpr{pos: at, Op: t.Text, X: x, Postfix: true}
			x = u
		default:
			return x
		}
	}
}

// castKeywords are base types accepted inside a C-style cast.
var castKeywords = map[string]bool{
	"int": true, "long": true, "short": true, "char": true,
	"double": true, "float": true, "bool": true, "unsigned": true,
	"signed": true, "void": true,
}

// tryCast recognizes (type)expr at the current '(' and returns the cast
// node, or nil (restoring position) if this paren is not a cast.
func (p *parser) tryCast() Node {
	save := p.pos
	at := p.here()
	p.expect("(")
	a := p.a
	mark := len(a.parts)
	seenKeyword := false
	for {
		t := p.cur()
		if t.Kind == cpptok.KindKeyword && (castKeywords[t.Text] || t.Text == "const") {
			seenKeyword = true
			a.parts = append(a.parts, p.next().Text)
			continue
		}
		if t.Is("*") || t.Is("&") {
			a.parts = append(a.parts, p.next().Text)
			continue
		}
		break
	}
	if !seenKeyword || !p.cur().Is(")") {
		p.pos = save
		a.parts = pop(a.parts, mark)
		return nil
	}
	p.next() // ')'
	// A cast must be followed by something that starts an expression.
	t := p.cur()
	startsExpr := t.Kind == cpptok.KindIdent || t.Kind == cpptok.KindIntLit ||
		t.Kind == cpptok.KindFloatLit || t.Kind == cpptok.KindStringLit ||
		t.Kind == cpptok.KindCharLit || t.Is("(") ||
		t.Is("-") || t.Is("+") || t.Is("!") || t.Is("~") || t.Is("++") || t.Is("--")
	if !startsExpr {
		p.pos = save
		a.parts = pop(a.parts, mark)
		return nil
	}
	typ := p.joinParts(mark)
	x := p.parseUnary()
	if x == nil {
		p.pos = save
		return nil
	}
	c := alloc(&p.a.casts)
	*c = CastExpr{pos: at, Type: typ, X: x}
	return c
}

func (p *parser) parsePrimary() Node {
	t := p.cur()
	at := p.here()
	switch t.Kind {
	case cpptok.KindIntLit:
		p.next()
		return p.newLit(at, "int", t.Text)
	case cpptok.KindFloatLit:
		p.next()
		return p.newLit(at, "float", t.Text)
	case cpptok.KindStringLit:
		p.next()
		return p.newLit(at, "string", t.Text)
	case cpptok.KindCharLit:
		p.next()
		return p.newLit(at, "char", t.Text)
	case cpptok.KindKeyword:
		switch t.Text {
		case "true", "false":
			p.next()
			return p.newLit(at, "bool", t.Text)
		case "sizeof":
			p.next()
			if p.cur().Is("(") {
				p.skipBalanced("(", ")")
			}
			return p.newIdent(at, "sizeof")
		case "new", "delete", "this", "nullptr":
			p.next()
			return p.newIdent(at, t.Text)
		// Functional casts: int(x), double(y).
		case "int", "double", "float", "long", "char", "bool", "unsigned", "short":
			if p.at(1).Is("(") {
				typ := p.next().Text
				p.next() // (
				x := p.parseExpr()
				p.expect(")")
				c := alloc(&p.a.casts)
				*c = CastExpr{pos: at, Type: typ, X: x}
				return c
			}
		}
		return nil
	case cpptok.KindIdent:
		p.next()
		return p.newIdent(at, p.qualifiedIdent(t.Text, false))
	case cpptok.KindPunct:
		if t.Is("(") {
			if c := p.tryCast(); c != nil {
				return c
			}
			p.next()
			x := p.parseExpr()
			p.expect(")")
			if x == nil {
				return nil
			}
			pe := alloc(&p.a.parens)
			*pe = ParenExpr{pos: at, X: x}
			return pe
		}
		if t.Is("{") {
			return p.parseBraceInit()
		}
		return nil
	default:
		return nil
	}
}

func (p *parser) newLit(at pos, kind, text string) *Lit {
	l := alloc(&p.a.lits)
	*l = Lit{pos: at, LitKind: kind, Text: text}
	return l
}

func (p *parser) newIdent(at pos, name string) *Ident {
	id := alloc(&p.a.idents)
	*id = Ident{pos: at, Name: name}
	return id
}
