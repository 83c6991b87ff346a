package cppcheck_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"gptattr/internal/challenge"
	"gptattr/internal/codegen"
	"gptattr/internal/cppast"
	"gptattr/internal/cppcheck"
	"gptattr/internal/gpt"
	"gptattr/internal/style"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/fingerprints.golden from the current fingerprint")

const fingerprintGolden = "testdata/fingerprints.golden"

// goldenEntry is one corpus source under a stable name.
type goldenEntry struct{ name, src string }

// fingerprintCorpus deterministically rebuilds the fingerprint golden
// corpus: every challenge rendered under several random style profiles,
// each render with one gpt NCT transform of it; the sources of the
// CFG and fingerprint unit tests; and the FuzzBuildCFG and
// FuzzDominators seeds, pathological shapes included.
func fingerprintCorpus(t *testing.T) []goldenEntry {
	t.Helper()
	var out []goldenEntry
	rng := rand.New(rand.NewSource(2701))
	model := gpt.NewModel(gpt.Config{Seed: 2702})
	for _, c := range challenge.All() {
		for p := 0; p < 3; p++ {
			prof := style.Random(fmt.Sprintf("fp%d", p), rng)
			src := codegen.Render(c.Prog, prof, rng.Int63())
			name := fmt.Sprintf("challenge/%d/%s/p%d", c.Year, c.ID, p)
			out = append(out, goldenEntry{name + "/render", src})
			rs, err := model.NCT(src, 1, nil)
			if err != nil {
				t.Fatalf("%s: NCT: %v", name, err)
			}
			out = append(out, goldenEntry{name + "/nct", rs[0].Source})
		}
	}
	for i, src := range unitTestSources {
		out = append(out, goldenEntry{fmt.Sprintf("unit/%d", i), src})
	}
	for i, src := range cppcheck.CFGSeeds() {
		out = append(out, goldenEntry{fmt.Sprintf("seed/FuzzBuildCFG/%d", i), src})
	}
	for i, src := range dominatorSeeds {
		out = append(out, goldenEntry{fmt.Sprintf("seed/FuzzDominators/%d", i), src})
	}
	return out
}

// goldenLine renders one golden record: name, the first 12 hex digits
// of the source's SHA-256 (so a changed corpus reads as such, not as a
// changed fingerprint), and the fingerprint or "unavailable".
func goldenLine(t *testing.T, e goldenEntry) string {
	t.Helper()
	sum := sha256.Sum256([]byte(e.src))
	fp := "unavailable"
	tu, err := cppast.Parse(e.src)
	if err == nil {
		if h, ok := cppcheck.Fingerprint(tu); ok {
			fp = h
		}
	}
	return fmt.Sprintf("%s %s %s", e.name, hex.EncodeToString(sum[:6]), fp)
}

// TestFingerprintGolden pins Fingerprint's output byte for byte across
// the corpus: generated and transformed programs, the unit-test
// sources, and the fuzz seeds. The normal form behind it (the compacted
// CFG) must not move without this file being re-recorded on purpose
// with -update-golden.
func TestFingerprintGolden(t *testing.T) {
	var got []string
	for _, e := range fingerprintCorpus(t) {
		got = append(got, goldenLine(t, e))
	}
	if *updateGolden {
		if err := os.WriteFile(fingerprintGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %d entries", fingerprintGolden, len(got))
		return
	}
	f, err := os.Open(fingerprintGolden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d entries, corpus %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("entry %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

// dominatorSeeds are semstats' FuzzDominators seeds: its f.Add inputs
// and its committed testdata corpus.
var dominatorSeeds = []string{
	"int main() { return 0; }",
	"int main() { for (int i = 0; i < 10; i++) { if (i % 2) continue; } return 0; }",
	"int main() { while (1) { break; } do { } while (0); return 0; }",
	`int f(int n) { if (n <= 1) return 1; return n * f(n - 1); }
int main() { switch (f(3)) { case 1: return 1; default: return 0; } }`,
	"int main() { for (;;) { } }",
	"int main() { int x; goto done; }",
	// for-ever-conditional-break
	"int main() { for (;;) { if (0) break; } }",
	// infinite-loop-no-exit
	"int main() { while (1) { } }",
	// nested-break-continue
	"int main() { for (int i = 0; i < 3; i++) { for (int j = 0; j < i; j++) { if (j % 2) break; else continue; } } return 0; }",
	// nested-do-while
	"int main() { do { int x = 1; do { x++; } while (x < 3); } while (0); return 0; }",
	// recursion
	"int f(int n) { if (n <= 0) return 0; return f(n - 1); } int main() { return f(f(2)); }",
	// switch-fallthrough
	"int main() { int n; switch (n) { case 1: n++; case 2: n--; break; default: n = 0; } return n; }",
	// unreachable-tail
	"int main() { if (1) return 1; return 2; int dead = 3; return dead; }",
}

// unitTestSources are the programs of the CFG and fingerprint unit
// tests in cppcheck_test.go, frozen here so editing a unit test never
// silently re-baselines the golden.
var unitTestSources = []string{
	// TestBuildCFGNilForPrototype
	"int solve(int n);\nint main() { return 0; }",
	// TestCFGBreakContinue
	`
int main() {
    for (int i = 0; i < 10; i++) {
        if (i == 3) continue;
        if (i == 7) break;
    }
    return 0;
}
`,
	// TestCFGStrayBreakUnsupported
	"int main() { break; return 0; }",
	// TestCFGSwitch
	`
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
`,
	// fpBase (TestFingerprintDeterministic and the invariance tests)
	`
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
`,
	// TestFingerprintRenameInvariant
	`
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
`,
	// TestFingerprintCommentAndLayoutInvariant
	`
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
`,
	// TestFingerprintForWhileInvariant
	`
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
`,
	// TestFingerprintIncrementStyleInvariant
	"\nint main() {\n    int x = 0;\n    ++x;\n    return x;\n}\n",
	"\nint main() {\n    int x = 0;\n    x++;\n    return x;\n}\n",
	"\nint main() {\n    int x = 0;\n    x += 1;\n    return x;\n}\n",
	// TestFingerprintStdQualificationInvariant
	`
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
`,
	// TestFingerprintSensitiveToOperator
	`
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
`,
	// TestFingerprintSensitiveToLiteral
	`
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
`,
	// TestFingerprintSensitiveToComparisonFlip
	`
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
`,
	// TestFingerprintUnavailableForStructs
	`
struct Point { int x; int y; };
int main() { return 0; }
`,
	// TestFingerprintSensitiveToCaseValues, both instantiations
	caseValueSource("1", "2"),
	caseValueSource("5", "7"),
	// TestFingerprintSwitchNotConfusedWithIfElse
	`
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
`,
	`
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
`,
	// TestFingerprintDistinguishesLibraryCalls
	"\n#include <cmath>\nint main() { double d = sqrt(2.0); return d > 1.0; }\n",
	"\n#include <cmath>\nint main() { double d = fabs(2.0); return d > 1.0; }\n",
}

func caseValueSource(a, b string) string {
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
