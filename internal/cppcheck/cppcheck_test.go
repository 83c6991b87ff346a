package cppcheck

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"gptattr/internal/cppast"
)

func analyzeSrc(t *testing.T, src string) []Diagnostic {
	t.Helper()
	tu, err := cppast.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Analyze(tu)
}

func rulesOf(ds []Diagnostic) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Rule
	}
	return out
}

func wantOnly(t *testing.T, ds []Diagnostic, rule, variable string) {
	t.Helper()
	if len(ds) != 1 {
		t.Fatalf("want exactly one %s finding, got %v", rule, ds)
	}
	if ds[0].Rule != rule {
		t.Fatalf("want rule %s, got %v", rule, ds[0])
	}
	if variable != "" && ds[0].Var != variable {
		t.Fatalf("want var %q, got %v", variable, ds[0])
	}
	if ds[0].Line <= 0 {
		t.Fatalf("finding has no source position: %v", ds[0])
	}
}

func TestUninitRead(t *testing.T) {
	ds := analyzeSrc(t, `
#include <cstdio>
int main() {
    int x;
    int y = x + 1;
    printf("%d\n", y);
    return 0;
}
`)
	wantOnly(t, ds, RuleUninitRead, "x")
}

func TestUninitReadOnOneBranchOnly(t *testing.T) {
	ds := analyzeSrc(t, `
#include <cstdio>
int main() {
    int n;
    scanf("%d", &n);
    int x;
    if (n > 0) {
        x = 1;
    }
    printf("%d\n", x);
    return 0;
}
`)
	wantOnly(t, ds, RuleUninitRead, "x")
}

func TestNoUninitWhenAllPathsAssign(t *testing.T) {
	ds := analyzeSrc(t, `
#include <cstdio>
int main() {
    int n;
    scanf("%d", &n);
    int x;
    if (n > 0) {
        x = 1;
    } else {
        x = 2;
    }
    printf("%d\n", x);
    return 0;
}
`)
	if len(ds) != 0 {
		t.Fatalf("want clean, got %v", ds)
	}
}

func TestScanfTargetNotUninit(t *testing.T) {
	ds := analyzeSrc(t, `
#include <cstdio>
int main() {
    int n;
    scanf("%d", &n);
    printf("%d\n", n + 1);
    return 0;
}
`)
	if len(ds) != 0 {
		t.Fatalf("want clean (address-taken var is escaped), got %v", ds)
	}
}

func TestCinTargetDefined(t *testing.T) {
	ds := analyzeSrc(t, `
#include <iostream>
using namespace std;
int main() {
    int a, b;
    cin >> a >> b;
    cout << a + b << endl;
    return 0;
}
`)
	if len(ds) != 0 {
		t.Fatalf("want clean (cin chain defines targets), got %v", ds)
	}
}

func TestDeadStore(t *testing.T) {
	ds := analyzeSrc(t, `
#include <cstdio>
int main() {
    int x;
    x = 5;
    x = 7;
    printf("%d\n", x);
    return 0;
}
`)
	wantOnly(t, ds, RuleDeadStore, "x")
	if ds[0].Line != 5 {
		t.Fatalf("dead store should point at the first assignment (line 5), got %v", ds[0])
	}
}

func TestDeclInitializerNotDeadStore(t *testing.T) {
	ds := analyzeSrc(t, `
#include <cstdio>
int main() {
    int sum = 0;
    sum = 10;
    printf("%d\n", sum);
    return 0;
}
`)
	if len(ds) != 0 {
		t.Fatalf("decl initializer must be exempt from dead-store, got %v", ds)
	}
}

func TestLoopCarriedStoreNotDead(t *testing.T) {
	ds := analyzeSrc(t, `
#include <cstdio>
int main() {
    int acc = 0;
    for (int i = 0; i < 10; i++) {
        acc = acc + i;
    }
    printf("%d\n", acc);
    return 0;
}
`)
	if len(ds) != 0 {
		t.Fatalf("loop-carried store is live across the back edge, got %v", ds)
	}
}

func TestUnreachableAfterReturn(t *testing.T) {
	ds := analyzeSrc(t, `
#include <cstdio>
int main() {
    printf("hi\n");
    return 0;
    printf("never\n");
}
`)
	wantOnly(t, ds, RuleUnreachable, "")
	if ds[0].Line != 6 {
		t.Fatalf("unreachable finding should point at line 6, got %v", ds[0])
	}
}

func TestUnreachableReportedOncePerRegion(t *testing.T) {
	ds := analyzeSrc(t, `
#include <cstdio>
int main() {
    return 0;
    printf("a\n");
    printf("b\n");
    printf("c\n");
}
`)
	if got := rulesOf(ds); len(got) != 1 || got[0] != RuleUnreachable {
		t.Fatalf("want one region-head finding, got %v", ds)
	}
}

func TestUnusedDecl(t *testing.T) {
	ds := analyzeSrc(t, `
#include <cstdio>
int main() {
    int x = 3;
    int unused = 0;
    printf("%d\n", x);
    return 0;
}
`)
	wantOnly(t, ds, RuleUnusedDecl, "unused")
}

func TestConstCond(t *testing.T) {
	ds := analyzeSrc(t, `
#include <cstdio>
int main() {
    if (1 < 2) {
        printf("yes\n");
    }
    return 0;
}
`)
	wantOnly(t, ds, RuleConstCond, "")
}

func TestWhileTrueNotFlaggedAsBug(t *testing.T) {
	// while(true) with a break is the standard read-until-EOF idiom in
	// the corpus; it IS a constant condition, so SA005 fires — the test
	// pins that it fires exactly once and nothing else does.
	ds := analyzeSrc(t, `
#include <cstdio>
int main() {
    int n;
    while (true) {
        if (scanf("%d", &n) != 1) break;
        printf("%d\n", n);
    }
    return 0;
}
`)
	wantOnly(t, ds, RuleConstCond, "")
}

func TestConstCondIntegerDivisionIsTruncating(t *testing.T) {
	// 1/2 is integer division in C++: the condition folds to 0, so the
	// branch is always false — folding it in float64 would report the
	// opposite verdict.
	ds := analyzeSrc(t, `
#include <cstdio>
int main() {
    if (1 / 2) {
        printf("yes\n");
    }
    return 0;
}
`)
	wantOnly(t, ds, RuleConstCond, "")
	if !strings.Contains(ds[0].Msg, "always false") {
		t.Fatalf("1/2 folds to 0, want an always-false finding: %v", ds[0])
	}
}

func TestConstCondIntegerDivisionComparison(t *testing.T) {
	ds := analyzeSrc(t, `
#include <cstdio>
int main() {
    if (5 / 2 == 2) {
        printf("yes\n");
    }
    return 0;
}
`)
	wantOnly(t, ds, RuleConstCond, "")
	if !strings.Contains(ds[0].Msg, "always true") {
		t.Fatalf("5/2 truncates to 2, want an always-true finding: %v", ds[0])
	}
}

func TestConstCondFloatDivisionStaysExact(t *testing.T) {
	ds := analyzeSrc(t, `
#include <cstdio>
int main() {
    if (1 / 2.0) {
        printf("yes\n");
    }
    return 0;
}
`)
	wantOnly(t, ds, RuleConstCond, "")
	if !strings.Contains(ds[0].Msg, "always true") {
		t.Fatalf("1/2.0 is 0.5, want an always-true finding: %v", ds[0])
	}
}

func TestConstCondModulo(t *testing.T) {
	ds := analyzeSrc(t, `
#include <cstdio>
int main() {
    if (4 % 2) {
        printf("yes\n");
    }
    return 0;
}
`)
	wantOnly(t, ds, RuleConstCond, "")
	if !strings.Contains(ds[0].Msg, "always false") {
		t.Fatalf("4%%2 is 0, want an always-false finding: %v", ds[0])
	}
}

func TestForInfiniteNoCondNotConstCond(t *testing.T) {
	ds := analyzeSrc(t, `
#include <cstdio>
int main() {
    for (;;) {
        break;
    }
    return 0;
}
`)
	if len(ds) != 0 {
		t.Fatalf("for(;;) is an idiom, not a finding: %v", ds)
	}
}

func TestCleanTypicalGeneratedProgram(t *testing.T) {
	// Mirrors the codegen output shape: read N, loop, accumulate, print.
	ds := analyzeSrc(t, `
#include <iostream>
#include <vector>
using namespace std;

int solve(int n) {
    int total = 0;
    for (int i = 1; i <= n; i++) {
        total += i;
    }
    return total;
}

int main() {
    int n;
    cin >> n;
    vector<int> vals(n);
    for (int i = 0; i < n; i++) {
        cin >> vals[i];
    }
    long long sum = 0;
    for (int i = 0; i < n; i++) {
        sum += vals[i];
    }
    cout << sum << "\n";
    cout << solve(n) << endl;
    return 0;
}
`)
	if len(ds) != 0 {
		t.Fatalf("typical generated program must be clean, got %v", ds)
	}
}

func TestRefParamArgEscapes(t *testing.T) {
	ds := analyzeSrc(t, `
#include <iostream>
using namespace std;
void fill(int &out) { out = 7; }
int main() {
    int x;
    fill(x);
    cout << x << endl;
    return 0;
}
`)
	if len(ds) != 0 {
		t.Fatalf("ref-param argument must count as defined, got %v", ds)
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	src := `
#include <cstdio>
int main() {
    int a;
    int b;
    int c = a + b;
    c = 1;
    return 0;
    printf("%d\n", c);
}
`
	first := analyzeSrc(t, src)
	if len(first) == 0 {
		t.Fatal("fixture should produce findings")
	}
	for i := 0; i < 20; i++ {
		if got := analyzeSrc(t, src); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d differs:\n%v\nvs\n%v", i, got, first)
		}
	}
}

// TestPooledScratchConcurrent runs Analyze and Fingerprint, which share
// one pool of workspaces, from several goroutines at once over the
// FuzzBuildCFG seeds: every answer must equal the one-goroutine answer.
func TestPooledScratchConcurrent(t *testing.T) {
	type answer struct {
		diags []Diagnostic
		fp    string
		ok    bool
	}
	var tus []*cppast.TranslationUnit
	for _, src := range cfgSeeds() {
		if tu, err := cppast.Parse(src); err == nil && tu != nil {
			tus = append(tus, tu)
		}
	}
	run := func(tu *cppast.TranslationUnit) answer {
		fp, ok := Fingerprint(tu)
		return answer{Analyze(tu), fp, ok}
	}
	want := make([]answer, len(tus))
	for i, tu := range tus {
		want[i] = run(tu)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range tus {
				i := (k + w*len(tus)/4) % len(tus)
				if got := run(tus[i]); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d, seed %d: %+v, want %+v", w, i, got, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestDefUseChains(t *testing.T) {
	tu := cppast.MustParse(`
int main() {
    int x = 1;
    int y = x + 2;
    x = y;
    return x;
}
`)
	fn := tu.Function("main")
	var sc Scratch
	chains := sc.DefUseChains(sc.Build(fn), nil)
	if len(chains) == 0 {
		t.Fatal("want def-use chains")
	}
	found := false
	for _, ch := range chains {
		if ch.Var == "x" && len(ch.UseLines) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("want a chain from a def of x to its uses, got %+v", chains)
	}
}

// --- CFG structural tests ---

func TestBuildCFGNilForPrototype(t *testing.T) {
	tu := cppast.MustParse("int solve(int n);\nint main() { return 0; }")
	if g := new(Scratch).Build(tu.Function("solve")); g != nil {
		t.Fatal("prototype must produce a nil CFG")
	}
	if g := new(Scratch).Build(nil); g != nil {
		t.Fatal("nil function must produce a nil CFG")
	}
}

func TestCFGBreakContinue(t *testing.T) {
	tu := cppast.MustParse(`
int main() {
    for (int i = 0; i < 10; i++) {
        if (i == 3) continue;
        if (i == 7) break;
    }
    return 0;
}
`)
	g := new(Scratch).Build(tu.Function("main"))
	if g.Unsupported {
		t.Fatal("break/continue inside a loop are supported")
	}
	reach := reachable(g)
	if !reach[g.Exit] {
		t.Fatal("exit must be reachable")
	}
}

func TestCFGStrayBreakUnsupported(t *testing.T) {
	tu := cppast.MustParse("int main() { break; return 0; }")
	g := new(Scratch).Build(tu.Function("main"))
	if !g.Unsupported {
		t.Fatal("stray break must mark the CFG unsupported")
	}
	if Analyze(tu) != nil {
		t.Fatal("unsupported functions must produce no diagnostics")
	}
}

func TestCFGSwitch(t *testing.T) {
	tu := cppast.MustParse(`
#include <cstdio>
int main() {
    int n = 2;
    switch (n) {
    case 1:
        printf("one\n");
        break;
    case 2:
        printf("two\n");
    default:
        printf("other\n");
    }
    return 0;
}
`)
	g := new(Scratch).Build(tu.Function("main"))
	if g.Unsupported {
		t.Fatal("switch is supported")
	}
	if !reachable(g)[g.Exit] {
		t.Fatal("exit must be reachable through the switch")
	}
}

// --- Fingerprint tests ---

func fp(t *testing.T, src string) (string, bool) {
	t.Helper()
	tu, err := cppast.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Fingerprint(tu)
}

func mustFP(t *testing.T, src string) string {
	t.Helper()
	h, ok := fp(t, src)
	if !ok {
		t.Fatalf("fingerprint unavailable for:\n%s", src)
	}
	return h
}

const fpBase = `
#include <iostream>
using namespace std;
int main() {
    int n;
    cin >> n;
    int total = 0;
    for (int i = 0; i < n; i++) {
        total += i;
    }
    cout << total << endl;
    return 0;
}
`

func TestFingerprintDeterministic(t *testing.T) {
	a := mustFP(t, fpBase)
	for i := 0; i < 10; i++ {
		if b := mustFP(t, fpBase); b != a {
			t.Fatal("fingerprint must be deterministic")
		}
	}
}

func TestFingerprintRenameInvariant(t *testing.T) {
	renamed := `
#include <iostream>
using namespace std;
int main() {
    int count;
    cin >> count;
    int acc = 0;
    for (int idx = 0; idx < count; idx++) {
        acc += idx;
    }
    cout << acc << endl;
    return 0;
}
`
	if mustFP(t, fpBase) != mustFP(t, renamed) {
		t.Fatal("alpha-renaming must not change the fingerprint")
	}
}

func TestFingerprintCommentAndLayoutInvariant(t *testing.T) {
	noisy := `
#include <iostream>
using namespace std;

// entry point
int main()
{
    int n; // the count
    cin >> n;
    /* accumulator */
    int total = 0;
    for (int i = 0; i < n; i++) { total += i; }
    cout << total << endl;
    return 0;
}
`
	if mustFP(t, fpBase) != mustFP(t, noisy) {
		t.Fatal("comments and layout must not change the fingerprint")
	}
}

func TestFingerprintForWhileInvariant(t *testing.T) {
	while := `
#include <iostream>
using namespace std;
int main() {
    int n;
    cin >> n;
    int total = 0;
    int i = 0;
    while (i < n) {
        total += i;
        i++;
    }
    cout << total << endl;
    return 0;
}
`
	if mustFP(t, fpBase) != mustFP(t, while) {
		t.Fatal("for and its while rewrite must fingerprint identically")
	}
}

func TestFingerprintIncrementStyleInvariant(t *testing.T) {
	pre := `
int main() {
    int x = 0;
    ++x;
    return x;
}
`
	post := `
int main() {
    int x = 0;
    x++;
    return x;
}
`
	plusEq := `
int main() {
    int x = 0;
    x += 1;
    return x;
}
`
	a, b, c := mustFP(t, pre), mustFP(t, post), mustFP(t, plusEq)
	if a != b || b != c {
		t.Fatal("statement-position increments must normalize identically")
	}
}

func TestFingerprintStdQualificationInvariant(t *testing.T) {
	qualified := `
#include <iostream>
int main() {
    int n;
    std::cin >> n;
    int total = 0;
    for (int i = 0; i < n; i++) {
        total += i;
    }
    std::cout << total << std::endl;
    return 0;
}
`
	if mustFP(t, fpBase) != mustFP(t, qualified) {
		t.Fatal("std:: qualification must not change the fingerprint")
	}
}

func TestFingerprintSensitiveToOperator(t *testing.T) {
	mutated := `
#include <iostream>
using namespace std;
int main() {
    int n;
    cin >> n;
    int total = 0;
    for (int i = 0; i < n; i++) {
        total -= i;
    }
    cout << total << endl;
    return 0;
}
`
	if mustFP(t, fpBase) == mustFP(t, mutated) {
		t.Fatal("operator change must change the fingerprint")
	}
}

func TestFingerprintSensitiveToLiteral(t *testing.T) {
	mutated := `
#include <iostream>
using namespace std;
int main() {
    int n;
    cin >> n;
    int total = 1;
    for (int i = 0; i < n; i++) {
        total += i;
    }
    cout << total << endl;
    return 0;
}
`
	if mustFP(t, fpBase) == mustFP(t, mutated) {
		t.Fatal("literal change must change the fingerprint")
	}
}

func TestFingerprintSensitiveToComparisonFlip(t *testing.T) {
	mutated := `
#include <iostream>
using namespace std;
int main() {
    int n;
    cin >> n;
    int total = 0;
    for (int i = 0; i <= n; i++) {
        total += i;
    }
    cout << total << endl;
    return 0;
}
`
	if mustFP(t, fpBase) == mustFP(t, mutated) {
		t.Fatal("comparison flip must change the fingerprint")
	}
}

func TestFingerprintUnavailableForStructs(t *testing.T) {
	if _, ok := fp(t, `
struct Point { int x; int y; };
int main() { return 0; }
`); ok {
		t.Fatal("structs are outside the canonical subset")
	}
}

func TestFingerprintSensitiveToCaseValues(t *testing.T) {
	// Case labels are behaviour: two switches differing only in their
	// case values dispatch differently and must never hash equal.
	tmpl := func(a, b string) string {
		return `
#include <cstdio>
int main() {
    int n;
    scanf("%d", &n);
    switch (n) {
    case ` + a + `:
        printf("a\n");
        break;
    case ` + b + `:
        printf("b\n");
        break;
    }
    return 0;
}
`
	}
	if mustFP(t, tmpl("1", "2")) == mustFP(t, tmpl("5", "7")) {
		t.Fatal("changed case values must change the fingerprint")
	}
}

func TestFingerprintSwitchNotConfusedWithIfElse(t *testing.T) {
	// switch(n){case 0: X; default: Y} runs X when n is zero; if(n) X
	// else Y runs X when n is nonzero. Identical graph shapes, inverted
	// semantics — the sw/br opcode split keeps them apart.
	sw := `
#include <cstdio>
int main() {
    int n;
    scanf("%d", &n);
    switch (n) {
    case 0:
        printf("x\n");
        break;
    default:
        printf("y\n");
        break;
    }
    return 0;
}
`
	ifElse := `
#include <cstdio>
int main() {
    int n;
    scanf("%d", &n);
    if (n) {
        printf("x\n");
    } else {
        printf("y\n");
    }
    return 0;
}
`
	if mustFP(t, sw) == mustFP(t, ifElse) {
		t.Fatal("a switch must not fingerprint like an if/else of the same shape")
	}
}

func TestFingerprintDistinguishesLibraryCalls(t *testing.T) {
	a := mustFP(t, `
#include <cmath>
int main() { double d = sqrt(2.0); return d > 1.0; }
`)
	b := mustFP(t, `
#include <cmath>
int main() { double d = fabs(2.0); return d > 1.0; }
`)
	if a == b {
		t.Fatal("different library calls must fingerprint differently")
	}
}
