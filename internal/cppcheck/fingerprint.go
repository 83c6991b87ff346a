package cppcheck

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"gptattr/internal/cppast"
)

// Fingerprint computes a canonical hash of the unit's behavioural
// skeleton: per-function control-flow graphs serialized in a normal
// form that erases every style axis the transform package rewrites —
// identifier names (alpha-renamed by first binding), std::
// qualification, comments, layout, include sets, pre/post increment in
// statement position, and the for/while loop form (both reduce to the
// same graph) — while preserving everything behavioural: literals,
// operators, call targets, I/O idiom, branch structure, and a def-use
// occurrence summary per variable slot.
//
// ok=false means the unit contains constructs the canonicalizer cannot
// model faithfully (Unknown regions, structs, body-level typedefs);
// callers must then treat the programs as incomparable, never equal.
// Two sources with equal fingerprints are behaviourally
// indistinguishable under the cppinterp semantics the corpus uses;
// unequal or unavailable fingerprints imply nothing.
func Fingerprint(tu *cppast.TranslationUnit) (string, bool) {
	c := newCanon(tu)
	sc := unitScratch.Get().(*Scratch)
	defer putScratch(sc)
	var b strings.Builder
	for _, d := range tu.Decls {
		switch n := d.(type) {
		case *cppast.Preproc:
			// Includes never reach the interpreter; #define and friends
			// do (the interpreter expands object-like macros).
			text := strings.TrimSpace(n.Text)
			if !strings.HasPrefix(text, "#include") {
				fmt.Fprintf(&b, "pre %s\n", strings.Join(strings.Fields(text), " "))
			}
		case *cppast.UsingDirective, *cppast.TypedefDecl, *cppast.Comment, *cppast.EmptyStmt:
			// Pure surface (typedefs are expanded into canonical types).
		case *cppast.VarDecl:
			c.resetLocals(nil)
			fmt.Fprintf(&b, "global %s\n", c.varDeclText(n, c.globalSlot))
		case *cppast.FuncDecl:
			if n.Body == nil {
				fmt.Fprintf(&b, "proto %s %s\n", c.funcSlots[n.Name], c.signature(n))
				continue
			}
			c.resetLocals(n.Params)
			g := sc.Build(n)
			if g.Unsupported {
				return "", false
			}
			body, ok := c.serializeCFG(sc.Compact(g))
			if !ok {
				return "", false
			}
			fmt.Fprintf(&b, "func %s %s\n%s", c.funcSlots[n.Name], c.signature(n), body)
			fmt.Fprintf(&b, "du %s\n", c.defUseSummary())
		default:
			return "", false // StructDecl, Unknown, anything new
		}
	}
	if !c.ok {
		return "", false
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:]), true
}

// canon carries the name-normalization state of one fingerprint pass.
type canon struct {
	ok        bool
	typedefs  map[string]string
	funcSlots map[string]string
	globals   map[string]string
	locals    map[string]string
	nLocals   int
	nGlobals  int
	useCounts map[string]int
}

func newCanon(tu *cppast.TranslationUnit) *canon {
	c := &canon{
		ok:        true,
		typedefs:  make(map[string]string),
		funcSlots: make(map[string]string),
		globals:   make(map[string]string),
	}
	nf := 0
	for _, d := range tu.Decls {
		switch n := d.(type) {
		case *cppast.TypedefDecl:
			fields := strings.Fields(strings.TrimSuffix(strings.TrimSpace(n.Text), ";"))
			// "typedef long long ll;" -> ll = "long long"
			if len(fields) >= 3 && fields[0] == "typedef" {
				alias := fields[len(fields)-1]
				c.typedefs[alias] = strings.Join(fields[1:len(fields)-1], " ")
			}
		case *cppast.FuncDecl:
			if _, seen := c.funcSlots[n.Name]; seen {
				continue
			}
			if n.Name == "main" {
				c.funcSlots[n.Name] = "main"
			} else {
				c.funcSlots[n.Name] = fmt.Sprintf("F%d", nf)
				nf++
			}
		case *cppast.VarDecl:
			for _, dd := range n.Names {
				if _, seen := c.globals[dd.Name]; !seen {
					c.globals[dd.Name] = fmt.Sprintf("G%d", c.nGlobals)
					c.nGlobals++
				}
			}
		}
	}
	return c
}

func (c *canon) resetLocals(params []*cppast.Param) {
	c.locals = make(map[string]string)
	c.nLocals = 0
	c.useCounts = make(map[string]int)
	for i, p := range params {
		if p.Name != "" {
			c.locals[p.Name] = fmt.Sprintf("p%d", i)
		}
	}
}

// canonType expands typedef aliases, strips std:: qualification, and
// collapses whitespace so "std::vector<int>" == "vector < int >".
func (c *canon) canonType(t string) string {
	t = strings.ReplaceAll(t, "std::", "")
	t = strings.Join(strings.Fields(t), " ")
	base := t
	for i := 0; i < 4; i++ {
		if u, ok := c.typedefs[base]; ok {
			base = strings.Join(strings.Fields(u), " ")
			continue
		}
		break
	}
	return base
}

var typeWords = map[string]bool{
	"int": true, "long": true, "long long": true, "unsigned": true,
	"double": true, "float": true, "char": true, "bool": true, "short": true,
	"size_t": true, "unsigned long long": true, "long double": true,
}

func (c *canon) signature(n *cppast.FuncDecl) string {
	parts := make([]string, len(n.Params))
	for i, p := range n.Params {
		parts[i] = c.canonType(p.Type)
		if p.Ref {
			parts[i] += "&"
		}
	}
	return c.canonType(n.RetType) + "(" + strings.Join(parts, ",") + ")"
}

func (c *canon) globalSlot(name string) string {
	if s, ok := c.globals[name]; ok {
		return s
	}
	c.globals[name] = fmt.Sprintf("G%d", c.nGlobals)
	c.nGlobals++
	return c.globals[name]
}

// bindLocal assigns a fresh slot to a declarator name, rebinding any
// previous same-name slot (shadowing becomes a new slot on both sides
// of a comparison, or a mismatch — either way never a false equality).
func (c *canon) bindLocal(name string) string {
	c.nLocals++
	slot := fmt.Sprintf("v%d", c.nLocals)
	c.locals[name] = slot
	return slot
}

// resolve maps an identifier occurrence to its canonical slot. Names
// bound to nothing visible (library identifiers: cin, endl, sqrt, ...)
// pass through verbatim, which keeps distinct library calls distinct.
func (c *canon) resolve(name string) string {
	name = strings.TrimPrefix(name, "std::")
	if s, ok := c.locals[name]; ok {
		c.useCounts[s]++
		return s
	}
	if s, ok := c.funcSlots[name]; ok {
		return s
	}
	if s, ok := c.globals[name]; ok {
		return s
	}
	return name
}

// defUseSummary renders the per-slot occurrence counts of the function
// just serialized, in slot order — the def-use component of the
// fingerprint.
func (c *canon) defUseSummary() string {
	slots := make([]string, 0, len(c.useCounts))
	for s := range c.useCounts {
		slots = append(slots, s)
	}
	sort.Strings(slots)
	parts := make([]string, len(slots))
	for i, s := range slots {
		parts[i] = fmt.Sprintf("%s=%d", s, c.useCounts[s])
	}
	return strings.Join(parts, " ")
}

// --- CFG serialization ---

// serializeCFG renders the function's compacted graph (see compactor):
// blocks numbered in reverse postorder, so for-loops and their
// while-rewrites serialize identically.
func (c *canon) serializeCFG(nodes []CompactNode) (string, bool) {
	var b strings.Builder
	for i, n := range nodes {
		fmt.Fprintf(&b, "b%d:\n", i)
		for _, s := range n.Stmts {
			line, ok := c.stmtText(s)
			if !ok {
				return "", false
			}
			if line != "" {
				fmt.Fprintf(&b, "  %s\n", line)
			}
		}
		switch {
		case n.IsSwitch:
			// Switch dispatch: the case values are behaviour, not shape —
			// label every case edge with its canonical value so programs
			// differing only in case labels never hash equal, and use a
			// distinct opcode so a one-case switch can't collide with an
			// if/else of the same shape.
			targets := make([]string, len(n.Succs))
			for j, s := range n.Succs {
				switch {
				case j >= len(n.CaseVals):
					targets[j] = fmt.Sprintf("nomatch->b%d", s)
				case n.CaseVals[j] == nil:
					targets[j] = fmt.Sprintf("default->b%d", s)
				default:
					targets[j] = fmt.Sprintf("%s->b%d", c.exprText(n.CaseVals[j], false), s)
				}
			}
			fmt.Fprintf(&b, "  sw %s [%s]\n", c.exprText(n.Cond, false), strings.Join(targets, ","))
		case n.Cond != nil:
			targets := make([]string, len(n.Succs))
			for j, s := range n.Succs {
				targets[j] = fmt.Sprintf("b%d", s)
			}
			fmt.Fprintf(&b, "  br %s -> %s\n", c.exprText(n.Cond, false), strings.Join(targets, ","))
		case len(n.Succs) == 1:
			fmt.Fprintf(&b, "  -> b%d\n", n.Succs[0])
		case len(n.Succs) == 0:
			b.WriteString("  end\n")
		default:
			return "", false // condition-less fan-out: not canonical
		}
	}
	return b.String(), true
}

// stmtText renders one simple statement canonically. Empty string
// means the statement carries no behaviour (comments, usings).
func (c *canon) stmtText(s cppast.Node) (string, bool) {
	switch n := s.(type) {
	case *cppast.VarDecl:
		return "decl " + c.varDeclText(n, c.bindLocal), true
	case *cppast.ExprStmt:
		return "expr " + c.exprText(n.X, true), c.ok
	case *cppast.Return:
		if n.Value == nil {
			return "ret", true
		}
		return "ret " + c.exprText(n.Value, false), c.ok
	case *cppast.Preproc:
		text := strings.TrimSpace(n.Text)
		if strings.HasPrefix(text, "#include") {
			return "", true
		}
		return "pre " + strings.Join(strings.Fields(text), " "), true
	case *cppast.Comment, *cppast.EmptyStmt, *cppast.UsingDirective:
		return "", true
	default:
		return "", false // TypedefDecl in a body, Unknown, ...
	}
}

// varDeclText renders a declaration's declarators with slots assigned
// by the bind function (locals get fresh slots, globals stable ones).
func (c *canon) varDeclText(n *cppast.VarDecl, bind func(string) string) string {
	typ := c.canonType(n.Type)
	parts := make([]string, len(n.Names))
	for i, d := range n.Names {
		s := bind(d.Name)
		for _, dim := range d.ArrayLen {
			if dim == nil {
				s += "[]"
			} else {
				s += "[" + c.exprText(dim, false) + "]"
			}
		}
		if d.Init != nil {
			s += "=" + c.exprText(d.Init, false)
		}
		parts[i] = s
	}
	return typ + " " + strings.Join(parts, ",")
}

// exprText renders an expression as a canonical prefix form. stmtCtx
// marks value-discarding position, where x++ / ++x / x += 1 all
// normalize to the same increment form.
func (c *canon) exprText(e cppast.Node, stmtCtx bool) string {
	switch n := e.(type) {
	case nil:
		return "?"
	case *cppast.Ident:
		return c.resolve(n.Name)
	case *cppast.Lit:
		return n.LitKind + ":" + n.Text
	case *cppast.ParenExpr:
		return c.exprText(n.X, stmtCtx)
	case *cppast.UnaryExpr:
		if stmtCtx && (n.Op == "++" || n.Op == "--") {
			op := "+="
			if n.Op == "--" {
				op = "-="
			}
			return "(" + op + " " + c.exprText(n.X, false) + " int:1)"
		}
		mark := ""
		if n.Postfix {
			mark = "post"
		}
		return "(u" + n.Op + mark + " " + c.exprText(n.X, false) + ")"
	case *cppast.BinaryExpr:
		if stmtCtx && (n.Op == "+=" || n.Op == "-=") {
			if lit, ok := n.R.(*cppast.Lit); ok && lit.LitKind == "int" && lit.Text == "1" {
				return "(" + n.Op + " " + c.exprText(n.L, false) + " int:1)"
			}
		}
		return "(" + n.Op + " " + c.exprText(n.L, false) + " " + c.exprText(n.R, false) + ")"
	case *cppast.TernaryExpr:
		return "(?: " + c.exprText(n.Cond, false) + " " + c.exprText(n.Then, false) + " " + c.exprText(n.Else, false) + ")"
	case *cppast.CallExpr:
		// Functional casts double(x) reparse as calls; normalize them
		// to the cast form so the printer's cast style is invisible.
		if id, ok := n.Fun.(*cppast.Ident); ok && len(n.Args) == 1 {
			name := strings.TrimPrefix(id.Name, "std::")
			if _, isLocal := c.locals[name]; !isLocal {
				if _, isFunc := c.funcSlots[name]; !isFunc {
					if t := c.canonType(name); typeWords[t] {
						return "(cast " + t + " " + c.exprText(n.Args[0], false) + ")"
					}
				}
			}
		}
		parts := make([]string, 0, len(n.Args)+1)
		parts = append(parts, c.exprText(n.Fun, false))
		for _, a := range n.Args {
			parts = append(parts, c.exprText(a, false))
		}
		return "(call " + strings.Join(parts, " ") + ")"
	case *cppast.IndexExpr:
		return "(idx " + c.exprText(n.X, false) + " " + c.exprText(n.Index, false) + ")"
	case *cppast.MemberExpr:
		op := "."
		if n.Arrow {
			op = "->"
		}
		return "(sel" + op + n.Sel + " " + c.exprText(n.X, false) + ")"
	case *cppast.CastExpr:
		return "(cast " + c.canonType(n.Type) + " " + c.exprText(n.X, false) + ")"
	default:
		c.ok = false
		return "?!"
	}
}
