package cppcheck

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"gptattr/internal/cppast"
)

// Rule IDs are stable identifiers: output formats, suppression lists,
// and the StaticVerify suspect set all key on them. Never renumber.
const (
	RuleUninitRead  = "SA001-uninit-read"
	RuleDeadStore   = "SA002-dead-store"
	RuleUnreachable = "SA003-unreachable"
	RuleUnusedDecl  = "SA004-unused-decl"
	RuleConstCond   = "SA005-const-cond"
)

// Diagnostic is one finding with a stable rule ID and source position.
type Diagnostic struct {
	Rule string `json:"rule"`
	Func string `json:"func"`
	Line int    `json:"line"`
	Var  string `json:"var,omitempty"`
	Msg  string `json:"msg"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("line %d: [%s] %s (in %s)", d.Line, d.Rule, d.Msg, d.Func)
}

// Analyze runs every rule over every function body in the unit and
// returns the findings sorted by (line, rule, message). Functions
// containing constructs outside the analyzable subset produce no
// findings: the engine prefers silence to guessing.
func Analyze(tu *cppast.TranslationUnit) []Diagnostic {
	funcs := make(map[string]*cppast.FuncDecl)
	for _, f := range tu.Functions() {
		if f.Body != nil {
			funcs[f.Name] = f
		}
	}
	s := unitScratch.Get().(*Scratch)
	defer putScratch(s)
	var out []Diagnostic
	for _, f := range tu.Functions() {
		out = s.AppendDiagnostics(out, s.Build(f), funcs)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		return out[i].Msg < out[j].Msg
	})
	return out
}

// AppendDiagnostics runs the rules over one function's graph and
// appends the findings to dst. funcs supplies the unit's function
// declarations for reference-parameter resolution; nil is accepted. A
// nil or Unsupported graph adds nothing.
func (s *Scratch) AppendDiagnostics(dst []Diagnostic, g *CFG, funcs map[string]*cppast.FuncDecl) []Diagnostic {
	if g == nil || g.Unsupported {
		return dst
	}
	fa := &s.fa
	fa.init(g, funcs)
	dst = fa.checkUninitReads(dst)
	dst = fa.checkDeadStores(dst)
	dst = fa.checkUnreachable(dst)
	dst = fa.checkUnusedDecls(dst)
	return fa.checkConstConds(dst)
}

// valueRuleApplies gates the flow-value rules to variables the flat
// model tracks faithfully: single-declaration, non-escaped scalars.
func (fa *funcAnalysis) valueRuleApplies(vid int32) bool {
	v := &fa.vars[vid]
	return v.Scalar && !v.Escaped && !v.MultiDecl && !v.Param
}

// checkUninitReads reports reads possibly reached by the synthetic
// uninitialized definition of an initializer-less scalar declaration.
func (fa *funcAnalysis) checkUninitReads(out []Diagnostic) []Diagnostic {
	fa.reachingDefs()
	fa.varMark = resize(fa.varMark, len(fa.vars))
	reported := fa.varMark // one finding per variable
	fa.replay(fa.g.rpo, func(site int32, use event) {
		if site != fa.r.uninitID[use.vid] || reported[use.vid] || !fa.valueRuleApplies(use.vid) {
			return
		}
		reported[use.vid] = true
		name := fa.vars[use.vid].Name
		out = append(out, Diagnostic{
			Rule: RuleUninitRead,
			Func: fa.g.Fn.Name,
			Line: int(use.line),
			Var:  name,
			Msg:  fmt.Sprintf("variable %q may be read before initialization", name),
		})
	})
	return out
}

// checkDeadStores reports plain `=` stores to scalar locals whose
// value cannot be observed: the variable is redefined or the function
// exits before any use. Declarator initializers are exempt (defensive
// zero-initialization is idiomatic, not a bug).
func (fa *funcAnalysis) checkDeadStores(out []Diagnostic) []Diagnostic {
	fa.liveness()
	lv := &fa.live
	fa.liveRow = resize(fa.liveRow, lv.w)
	live := fa.liveRow
	for _, b := range fa.g.rpo {
		copy(live, lv.row(lv.join, b.ID))
		evs := fa.eventsOf(b)
		for i := len(evs) - 1; i >= 0; i-- {
			ev := evs[i]
			switch ev.kind {
			case evDef:
				if ev.plain && !hasBit(live, ev.vid) && fa.valueRuleApplies(ev.vid) {
					name := fa.vars[ev.vid].Name
					out = append(out, Diagnostic{
						Rule: RuleDeadStore,
						Func: fa.g.Fn.Name,
						Line: int(ev.line),
						Var:  name,
						Msg:  fmt.Sprintf("value stored to %q is never read", name),
					})
				}
				clearBit(live, ev.vid)
			case evUse:
				setBit(live, ev.vid)
			}
		}
	}
	return out
}

// checkUnreachable reports statements in blocks no path from entry
// can execute. Only region heads (unreachable blocks with no
// unreachable predecessor) are reported, one finding per region.
func (fa *funcAnalysis) checkUnreachable(out []Diagnostic) []Diagnostic {
	reach := fa.g.reach // indexed by block ID
	for _, b := range fa.g.Blocks {
		if reach[b.ID] || (len(b.Stmts) == 0 && b.Cond == nil) {
			continue
		}
		head := true
		for _, p := range b.Preds {
			if !reach[p.ID] {
				head = false
				break
			}
		}
		if !head {
			continue
		}
		line := 0
		if len(b.Stmts) > 0 {
			line = b.Stmts[0].Line()
		} else if b.Cond != nil {
			line = b.Cond.Line()
		}
		out = append(out, Diagnostic{
			Rule: RuleUnreachable,
			Func: fa.g.Fn.Name,
			Line: line,
			Msg:  "statement is unreachable",
		})
	}
	return out
}

// checkUnusedDecls reports locals that are declared but never read or
// written after declaration.
func (fa *funcAnalysis) checkUnusedDecls(out []Diagnostic) []Diagnostic {
	fa.varMark = resize(fa.varMark, len(fa.vars))
	used := fa.varMark
	for _, ev := range fa.events {
		if ev.kind == evUse || (ev.kind == evDef && !ev.decl) {
			used[ev.vid] = true
		}
	}
	for vid := range fa.vars {
		v := &fa.vars[vid]
		if used[vid] || v.Param || v.Escaped || v.MultiDecl {
			continue
		}
		out = append(out, Diagnostic{
			Rule: RuleUnusedDecl,
			Func: fa.g.Fn.Name,
			Line: v.DeclLine,
			Var:  v.Name,
			Msg:  fmt.Sprintf("variable %q is declared but never used", v.Name),
		})
	}
	return out
}

// checkConstConds reports branch conditions that fold to a constant —
// the fossil a bad rewrite leaves behind when it replaces a live
// condition with a literal.
func (fa *funcAnalysis) checkConstConds(out []Diagnostic) []Diagnostic {
	report := func(cond cppast.Node, truth bool) {
		out = append(out, Diagnostic{
			Rule: RuleConstCond,
			Func: fa.g.Fn.Name,
			Line: cond.Line(),
			Msg:  fmt.Sprintf("branch condition is always %v", truth),
		})
	}
	cppast.Walk(fa.g.Fn.Body, func(n cppast.Node, _ int) bool {
		var cond cppast.Node
		switch s := n.(type) {
		case *cppast.If:
			cond = s.Cond
		case *cppast.While:
			cond = s.Cond
		case *cppast.DoWhile:
			cond = s.Cond
		case *cppast.For:
			cond = s.Cond // nil (for(;;)) is an idiom, not a finding
		}
		if cond != nil {
			if v, ok := foldConst(cond); ok {
				report(cond, v.f != 0)
			}
		}
		return true
	})
	return out
}

// constVal is a folded constant. isInt tracks whether C++ would
// evaluate the expression in an integer type, which changes the
// meaning of division: 1/2 is 0, not 0.5.
type constVal struct {
	f     float64
	isInt bool
}

// foldConst evaluates expressions built purely from literals. It
// returns ok=false as soon as an identifier, call, or unsupported
// operator appears.
func foldConst(e cppast.Node) (constVal, bool) {
	none := constVal{}
	switch n := e.(type) {
	case *cppast.Lit:
		switch n.LitKind {
		case "int":
			v, err := strconv.ParseInt(strings.TrimRight(n.Text, "lLuU"), 0, 64)
			if err != nil {
				return none, false
			}
			return constVal{f: float64(v), isInt: true}, true
		case "float":
			v, err := strconv.ParseFloat(strings.TrimRight(n.Text, "fFlL"), 64)
			if err != nil {
				return none, false
			}
			return constVal{f: v}, true
		case "bool":
			if n.Text == "true" {
				return constVal{f: 1, isInt: true}, true
			}
			return constVal{f: 0, isInt: true}, true
		}
		return none, false
	case *cppast.ParenExpr:
		return foldConst(n.X)
	case *cppast.UnaryExpr:
		v, ok := foldConst(n.X)
		if !ok {
			return none, false
		}
		switch n.Op {
		case "-":
			return constVal{f: -v.f, isInt: v.isInt}, true
		case "+":
			return v, true
		case "!":
			if v.f == 0 {
				return constVal{f: 1, isInt: true}, true
			}
			return constVal{f: 0, isInt: true}, true
		}
		return none, false
	case *cppast.BinaryExpr:
		l, ok := foldConst(n.L)
		if !ok {
			return none, false
		}
		r, ok := foldConst(n.R)
		if !ok {
			return none, false
		}
		bothInt := l.isInt && r.isInt
		b2v := func(b bool) constVal {
			if b {
				return constVal{f: 1, isInt: true}
			}
			return constVal{f: 0, isInt: true}
		}
		switch n.Op {
		case "+":
			return constVal{f: l.f + r.f, isInt: bothInt}, true
		case "-":
			return constVal{f: l.f - r.f, isInt: bothInt}, true
		case "*":
			return constVal{f: l.f * r.f, isInt: bothInt}, true
		case "/":
			if r.f == 0 {
				return none, false
			}
			if bothInt {
				return constVal{f: float64(int64(l.f) / int64(r.f)), isInt: true}, true
			}
			return constVal{f: l.f / r.f}, true
		case "%":
			if !bothInt || r.f == 0 {
				return none, false
			}
			return constVal{f: float64(int64(l.f) % int64(r.f)), isInt: true}, true
		case "==":
			return b2v(l.f == r.f), true
		case "!=":
			return b2v(l.f != r.f), true
		case "<":
			return b2v(l.f < r.f), true
		case "<=":
			return b2v(l.f <= r.f), true
		case ">":
			return b2v(l.f > r.f), true
		case ">=":
			return b2v(l.f >= r.f), true
		case "&&":
			return b2v(l.f != 0 && r.f != 0), true
		case "||":
			return b2v(l.f != 0 || r.f != 0), true
		}
		return none, false
	}
	return none, false
}
