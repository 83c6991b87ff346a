package cppast

import (
	"testing"
	"time"
)

// figure3 is the original code from the paper's Figure 3 (the GCJ
// "Cruise Control"-style horse race problem), lightly fixed for the
// typos introduced by the paper's typesetting.
const figure3 = `#include <iostream>
#include <algorithm>
using namespace std;
int main() {
    int nCase;
    cin >> nCase;
    for (int iCase = 1; iCase <= nCase; ++iCase) {
        int d, n;
        double t = 0;
        cin >> d >> n;
        for (int i = 0; i < n; ++i) {
            int x, y;
            cin >> x >> y;
            x = d - x;
            t = max(t, (double)x / (double)y);
        }
        printf("Case #%d: %.6lf\n", iCase, (double)d / t);
    }
}`

// figure4a is the paper's first NCT transformation of figure3.
const figure4a = `#include <iostream>
#include <algorithm>
#include <cstdio>
using namespace std;
double solveTestCase(int d, int n) {
    double maxTime = 0;
    for (int i = 0; i < n; ++i) {
        int x, y;
        cin >> x >> y;
        x = d - x;
        maxTime = max(maxTime, (double)x / (double)y);
    }
    return (double)d / maxTime;
}
int main() {
    int numCase;
    cin >> numCase;
    for (int iCase = 1; iCase <= numCase; ++iCase) {
        int distance, numHorses;
        cin >> distance >> numHorses;
        double result = solveTestCase(distance, numHorses);
        printf("Case #%d: %.6lf\n", iCase, result);
    }
}`

func TestParseFigure3(t *testing.T) {
	tu, err := Parse(figure3)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	main := tu.Function("main")
	if main == nil {
		t.Fatal("main not found")
	}
	if main.RetType != "int" {
		t.Errorf("main return type = %q, want int", main.RetType)
	}
	kinds := CountKinds(tu)
	if kinds["Unknown"] != 0 {
		t.Errorf("figure3 produced %d Unknown nodes", kinds["Unknown"])
	}
	if kinds["For"] != 2 {
		t.Errorf("For count = %d, want 2", kinds["For"])
	}
	if kinds["CastExpr"] != 3 {
		t.Errorf("CastExpr count = %d, want 3", kinds["CastExpr"])
	}
	if kinds["Preproc"] != 2 {
		t.Errorf("Preproc count = %d, want 2", kinds["Preproc"])
	}
	if kinds["Using"] != 1 {
		t.Errorf("Using count = %d, want 1", kinds["Using"])
	}
}

func TestParseFigure4aFunctions(t *testing.T) {
	tu, err := Parse(figure4a)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	fns := tu.Functions()
	if len(fns) != 2 {
		t.Fatalf("got %d functions, want 2", len(fns))
	}
	solve := tu.Function("solveTestCase")
	if solve == nil {
		t.Fatal("solveTestCase not found")
	}
	if len(solve.Params) != 2 {
		t.Fatalf("solveTestCase has %d params, want 2", len(solve.Params))
	}
	if solve.Params[0].Type != "int" || solve.Params[0].Name != "d" {
		t.Errorf("param 0 = (%q, %q), want (int, d)", solve.Params[0].Type, solve.Params[0].Name)
	}
	if solve.RetType != "double" {
		t.Errorf("return type = %q, want double", solve.RetType)
	}
	if CountKinds(tu)["Unknown"] != 0 {
		t.Errorf("figure4a produced Unknown nodes")
	}
}

func TestParseStatements(t *testing.T) {
	tests := []struct {
		name string
		body string
		want map[string]int // node kind -> exact count within the function subtree
	}{
		{
			name: "if else chain",
			body: "if (a) x = 1; else if (b) x = 2; else x = 3;",
			want: map[string]int{"If": 2},
		},
		{
			name: "while",
			body: "while (n--) { s += n; }",
			want: map[string]int{"While": 1, "Block": 2},
		},
		{
			name: "do while",
			body: "do { n /= 2; } while (n > 0);",
			want: map[string]int{"DoWhile": 1},
		},
		{
			name: "switch",
			body: "switch (k) { case 1: x = 1; break; case 2: x = 2; break; default: x = 0; }",
			want: map[string]int{"Switch": 1, "SwitchCase": 3, "Break": 2},
		},
		{
			name: "nested for",
			body: "for (int i = 0; i < n; i++) for (int j = 0; j < m; j++) s += i * j;",
			want: map[string]int{"For": 2},
		},
		{
			name: "multi declarator",
			body: "int a = 1, b, c = 3;",
			want: map[string]int{"VarDecl": 1, "Declarator": 3},
		},
		{
			name: "array decl",
			body: "int arr[100]; double grid[10][20];",
			want: map[string]int{"VarDecl": 2, "Declarator": 2},
		},
		{
			name: "ternary",
			body: "int m = a > b ? a : b;",
			want: map[string]int{"TernaryExpr": 1},
		},
		{
			name: "stream io",
			body: "cin >> a >> b; cout << a + b << endl;",
			want: map[string]int{"BinaryExpr": 5},
		},
		{
			name: "break continue",
			body: "for (;;) { if (x) break; continue; }",
			want: map[string]int{"Break": 1, "Continue": 1, "For": 1},
		},
		{
			name: "empty statement",
			body: ";;",
			want: map[string]int{"EmptyStmt": 2},
		},
		{
			name: "constructor init",
			body: "vector<int> v(n); string s(x);",
			want: map[string]int{"VarDecl": 2},
		},
		{
			name: "member call",
			body: "v.push_back(3); n = v.size();",
			want: map[string]int{"MemberExpr": 2, "CallExpr": 2},
		},
		{
			name: "range for",
			body: "for (auto x : xs) s += x;",
			want: map[string]int{"For": 1},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			src := "int main() {\n" + tt.body + "\n}"
			tu, err := Parse(src)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			kinds := CountKinds(tu)
			if kinds["Unknown"] != 0 {
				t.Errorf("Unknown nodes: %d (body %q)", kinds["Unknown"], tt.body)
			}
			for k, want := range tt.want {
				if kinds[k] != want {
					t.Errorf("%s count = %d, want %d", k, kinds[k], want)
				}
			}
		})
	}
}

func TestParseExprPrecedence(t *testing.T) {
	// a + b * c must parse as a + (b * c).
	tu := MustParse("int main() { x = a + b * c; }")
	main := tu.Function("main")
	es := main.Body.Stmts[0].(*ExprStmt)
	assign := es.X.(*BinaryExpr)
	if assign.Op != "=" {
		t.Fatalf("root op = %q, want =", assign.Op)
	}
	add := assign.R.(*BinaryExpr)
	if add.Op != "+" {
		t.Fatalf("rhs op = %q, want +", add.Op)
	}
	mul := add.R.(*BinaryExpr)
	if mul.Op != "*" {
		t.Fatalf("inner op = %q, want *", mul.Op)
	}
}

func TestParseRightAssociativeAssignment(t *testing.T) {
	tu := MustParse("int main() { a = b = c; }")
	es := tu.Function("main").Body.Stmts[0].(*ExprStmt)
	outer := es.X.(*BinaryExpr)
	if outer.Op != "=" {
		t.Fatalf("outer op %q", outer.Op)
	}
	if l, ok := outer.L.(*Ident); !ok || l.Name != "a" {
		t.Fatalf("left of outer assignment = %#v, want ident a", outer.L)
	}
	inner, ok := outer.R.(*BinaryExpr)
	if !ok || inner.Op != "=" {
		t.Fatalf("right of outer assignment = %#v, want inner assignment", outer.R)
	}
}

func TestParseStreamChainLeftAssociative(t *testing.T) {
	tu := MustParse("int main() { cin >> a >> b >> c; }")
	es := tu.Function("main").Body.Stmts[0].(*ExprStmt)
	outer := es.X.(*BinaryExpr)
	if outer.Op != ">>" {
		t.Fatalf("outer op %q", outer.Op)
	}
	if r, ok := outer.R.(*Ident); !ok || r.Name != "c" {
		t.Fatalf("rightmost operand = %#v, want c", outer.R)
	}
	mid := outer.L.(*BinaryExpr)
	if l, ok := mid.L.(*BinaryExpr); !ok || l.Op != ">>" {
		t.Fatalf("chain shape wrong: %#v", mid.L)
	}
}

func TestParseCasts(t *testing.T) {
	tests := []struct {
		src       string
		wantCasts int
	}{
		{"int main() { t = (double)x / (double)y; }", 2},
		{"int main() { t = double(x) / y; }", 1},
		{"int main() { t = (long long)a * b; }", 1},
		{"int main() { t = (a) * b; }", 0}, // paren expr, not a cast
		{"int main() { t = (unsigned int)z; }", 1},
	}
	for _, tt := range tests {
		kinds := CountKinds(MustParse(tt.src))
		if kinds["CastExpr"] != tt.wantCasts {
			t.Errorf("%q: casts = %d, want %d", tt.src, kinds["CastExpr"], tt.wantCasts)
		}
		if kinds["Unknown"] != 0 {
			t.Errorf("%q: unknown nodes present", tt.src)
		}
	}
}

func TestParseRecovery(t *testing.T) {
	// A lambda is outside the subset; the parser must produce an Unknown
	// node and keep going.
	src := `int main() {
    int a = 1;
    auto f = [](int v) { return v * 2; };
    int b = 2;
}`
	tu, _ := Parse(src)
	main := tu.Function("main")
	if main == nil {
		t.Fatal("main lost during recovery")
	}
	kinds := CountKinds(tu)
	if kinds["Unknown"] == 0 {
		t.Error("expected at least one Unknown node for the lambda")
	}
	if kinds["VarDecl"] < 2 {
		t.Errorf("VarDecl count = %d, want >= 2 (statements around the lambda)", kinds["VarDecl"])
	}
}

func TestParseRecoveryTopLevel(t *testing.T) {
	src := `@@@ garbage @@@
int ok() { return 1; }`
	tu, _ := Parse(src)
	if tu.Function("ok") == nil {
		t.Fatal("function after garbage not recovered")
	}
}

func TestParseGlobalsTypedefUsing(t *testing.T) {
	src := `#include <vector>
using namespace std;
typedef long long ll;
const int MAXN = 100005;
int memo[MAXN];
ll solve(ll x) { return x * 2; }
int main() { return 0; }`
	tu, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	kinds := CountKinds(tu)
	for k, want := range map[string]int{
		"Typedef": 1, "Using": 1, "Preproc": 1, "FuncDecl": 2, "Unknown": 0,
	} {
		if kinds[k] != want {
			t.Errorf("%s = %d, want %d", k, kinds[k], want)
		}
	}
	// Globals: MAXN and memo.
	var globals int
	for _, d := range tu.Decls {
		if _, ok := d.(*VarDecl); ok {
			globals++
		}
	}
	if globals != 2 {
		t.Errorf("global VarDecls = %d, want 2", globals)
	}
}

func TestParseStructDecl(t *testing.T) {
	src := `struct Point { int x; int y; };
int main() { return 0; }`
	tu, _ := Parse(src)
	var sd *StructDecl
	for _, d := range tu.Decls {
		if s, ok := d.(*StructDecl); ok {
			sd = s
		}
	}
	if sd == nil {
		t.Fatal("struct not parsed")
	}
	if sd.Name != "Point" || len(sd.Members) != 2 {
		t.Errorf("struct = %q with %d members, want Point with 2", sd.Name, len(sd.Members))
	}
}

func TestParseReferenceParams(t *testing.T) {
	tu := MustParse("void f(int &x, const vector<int> &v, double y) {}")
	f := tu.Function("f")
	if f == nil {
		t.Fatal("f not found")
	}
	if len(f.Params) != 3 {
		t.Fatalf("params = %d, want 3", len(f.Params))
	}
	if !f.Params[0].Ref || !f.Params[1].Ref || f.Params[2].Ref {
		t.Errorf("ref flags = %v %v %v, want true true false",
			f.Params[0].Ref, f.Params[1].Ref, f.Params[2].Ref)
	}
	if f.Params[1].Type != "const vector<int> &" {
		t.Errorf("param 1 type = %q", f.Params[1].Type)
	}
}

// MaxDepth returns the maximum node depth in the tree rooted at root
// (the root itself is at depth 0). It returns 0 for a nil root.
func MaxDepth(root Node) int {
	max := 0
	Walk(root, func(_ Node, d int) bool {
		if d > max {
			max = d
		}
		return true
	})
	return max
}

func TestMaxDepthAndWalk(t *testing.T) {
	tu := MustParse("int main() { if (a) { while (b) { x = y + z * w; } } }")
	d := MaxDepth(tu)
	// TU > FuncDecl > Block > If > Block > While > Block > ExprStmt >
	// BinaryExpr(=) > BinaryExpr(+) > BinaryExpr(*) > Ident.
	if d < 10 {
		t.Errorf("MaxDepth = %d, want >= 10", d)
	}
	var visited int
	Walk(tu, func(n Node, depth int) bool {
		visited++
		return true
	})
	if visited < 15 {
		t.Errorf("Walk visited %d nodes, want >= 15", visited)
	}
	// Pruning: skip function bodies.
	var pruned int
	Walk(tu, func(n Node, depth int) bool {
		pruned++
		return n.Kind() != "FuncDecl"
	})
	if pruned != 2 { // TU + FuncDecl
		t.Errorf("pruned walk visited %d nodes, want 2", pruned)
	}
}

func TestParseTemplateFunction(t *testing.T) {
	src := `template <typename T>
T sq(T x) { return x * x; }
int main() { return 0; }`
	tu, _ := Parse(src)
	if tu.Function("sq") == nil {
		t.Error("template function sq not parsed")
	}
}

func TestParseCommaOperatorInFor(t *testing.T) {
	tu := MustParse("int main() { int i, j; for (i = 0, j = 9; i < j; i++, j--) {} }")
	kinds := CountKinds(tu)
	if kinds["Unknown"] != 0 {
		t.Errorf("comma-for produced Unknown nodes")
	}
	if kinds["For"] != 1 {
		t.Errorf("For = %d, want 1", kinds["For"])
	}
}

func TestParsePreprocInsideFunction(t *testing.T) {
	src := "int main() {\n#ifdef DEBUG\n    x = 1;\n#endif\n    return 0;\n}"
	tu, _ := Parse(src)
	kinds := CountKinds(tu)
	if kinds["Preproc"] != 2 {
		t.Errorf("Preproc = %d, want 2", kinds["Preproc"])
	}
	if tu.Function("main") == nil {
		t.Error("main not parsed")
	}
}

func TestLinePositions(t *testing.T) {
	tu := MustParse("int main() {\n  int x = 1;\n  x++;\n}")
	main := tu.Function("main")
	if main.Line() != 1 {
		t.Errorf("main at line %d, want 1", main.Line())
	}
	if got := main.Body.Stmts[0].Line(); got != 2 {
		t.Errorf("first stmt at line %d, want 2", got)
	}
	if got := main.Body.Stmts[1].Line(); got != 3 {
		t.Errorf("second stmt at line %d, want 3", got)
	}
}

func TestParseMalformedParamListTerminates(t *testing.T) {
	// Regression: an unparseable parameter followed by a comma used to
	// loop forever — skipToCommaOrClose stopped at the separator and
	// the retry never advanced past it (found by FuzzBuildCFG).
	for _, src := range []string{
		"A A({retw,",
		"int f({,{,{, int x) { return 0; }",
		"int f(,,,) { return 1; } int main() { return f(); }",
	} {
		done := make(chan struct{})
		go func() {
			_, _ = Parse(src)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("parser hung on %q", src)
		}
	}
}
