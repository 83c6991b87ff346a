package cppcheck

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gptattr/internal/cppast"
	"gptattr/internal/pathological"
)

// hostileDepth is the depth or length at which the seven seed shapes
// are run through a Scratch before the ordinary sources.
const hostileDepth = 2000

// mergingHead is a function whose compaction merges a loop body with
// its post clause, writing the compactor's statement arena.
const mergingHead = "int head(int n) { for (int i = 0; i < n; i++) { n = n - 1; n = n + 1; } return n; } "

// wideFunc renders one function declaring n initialized variables:
// about 400 KB at n = 20,000, under the served 1 MiB body cap.
func wideFunc(n int) string {
	var b strings.Builder
	b.WriteString("int main() {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "int v%d = %d;\n", i, i)
	}
	b.WriteString("return 0;\n}\n")
	return b.String()
}

// analyzeUnit runs every per-function analysis of tu on s and on a
// fresh Scratch side by side and fails on any difference. It leaves
// s unreleased and returns the fresh Scratch, unreleased too.
func analyzeUnit(t *testing.T, s *Scratch, tu *cppast.TranslationUnit) *Scratch {
	t.Helper()
	fresh := new(Scratch)
	funcs := make(map[string]*cppast.FuncDecl)
	for _, fn := range tu.Functions() {
		if fn.Body != nil {
			funcs[fn.Name] = fn
		}
	}
	for _, fn := range tu.Functions() {
		g, want := s.Build(fn), fresh.Build(fn)
		if g == nil || want == nil {
			if g != want {
				t.Fatalf("%s: reused and fresh builds disagree on nil", fn.Name)
			}
			continue
		}
		sameCFG(t, g, want)
		if got, want := s.Compact(g), fresh.Compact(want); !sameCompact(got, want) {
			t.Fatalf("%s: compacted graph differs from a fresh scratch's", fn.Name)
		}
		if got, want := s.Summary(g, funcs), fresh.Summary(want, funcs); got != want {
			t.Fatalf("%s: Summary %+v, fresh scratch %+v", fn.Name, got, want)
		}
		if got, want := s.AppendDiagnostics(nil, g, funcs), fresh.AppendDiagnostics(nil, want, funcs); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: diagnostics %v, fresh scratch %v", fn.Name, got, want)
		}
	}
	return fresh
}

// sameCompact reports whether two compacted graphs of one function are
// equal node for node. Statements compare by identity, except the
// for-post wrappers each Scratch owns, which compare by the expression
// they wrap; an empty list equals a nil one.
func sameCompact(a, b []CompactNode) bool {
	if len(a) != len(b) {
		return false
	}
	sameStmt := func(x, y cppast.Node) bool {
		ex, ok1 := x.(*cppast.ExprStmt)
		ey, ok2 := y.(*cppast.ExprStmt)
		return x == y || ok1 && ok2 && ex.X == ey.X
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.Cond != y.Cond || x.IsSwitch != y.IsSwitch || !slices.Equal(x.CaseVals, y.CaseVals) ||
			!slices.Equal(x.Succs, y.Succs) || !slices.Equal(x.Preds, y.Preds) ||
			!slices.EqualFunc(x.Stmts, y.Stmts, sameStmt) {
			return false
		}
	}
	return true
}

// TestReleaseVisitsWhatTheUnitWrote pins the reset rule of package
// reuse on the Scratch: after a hostile unit (each seed shape at
// hostileDepth, and one function of 20,000 variables) went through a
// Scratch, every seed source analyzed on that same Scratch matches a
// fresh Scratch's results, and the next Release visits exactly the
// slots a fresh Scratch's would: the hostile unit's size is gone from
// the reset. After every Release, no slot in the Scratch's whole
// capacity refers to an analyzed unit.
func TestReleaseVisitsWhatTheUnitWrote(t *testing.T) {
	parse := func(src string) *cppast.TranslationUnit {
		tu, err := cppast.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return tu
	}
	var fixtures []*cppast.TranslationUnit
	for _, src := range cfgSeeds() {
		fixtures = append(fixtures, parse(src))
	}
	for hi, src := range append(pathological.Sources(hostileDepth), wideFunc(20000)) {
		var s Scratch
		// Functions around the hostile one, the first merging a
		// statement chain and the last merging none: Release must
		// also clear what an earlier function of the unit wrote.
		analyzeUnit(t, &s, parse(mergingHead+src+" int tail() { return 0; }"))
		s.Release()
		if stale := s.staleSlot(); stale != "" {
			t.Fatalf("hostile %d: after Release, %s still refers to the unit", hi, stale)
		}
		for fi, tu := range fixtures {
			fresh := analyzeUnit(t, &s, tu)
			if got, want := s.releaseSlots(), fresh.releaseSlots(); got != want {
				t.Fatalf("hostile %d, seed %d: Release would visit %d slots, a fresh scratch's %d", hi, fi, got, want)
			}
			s.Release()
			if stale := s.staleSlot(); stale != "" {
				t.Fatalf("hostile %d, seed %d: after Release, %s still refers to the unit", hi, fi, stale)
			}
		}
	}
}
