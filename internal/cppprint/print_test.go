package cppprint

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gptattr/internal/challenge"
	"gptattr/internal/codegen"
	"gptattr/internal/cppast"
	"gptattr/internal/cppinterp"
	"gptattr/internal/ir"
	"gptattr/internal/style"
)

// configs exercises the printer's style space.
var configs = []Config{
	{},
	{IndentTabs: true},
	{IndentWidth: 2, Allman: true},
	{TightOps: true, TightCommas: true},
	{Allman: true, FunctionalCasts: true},
	{IndentWidth: 8, TightCommas: true},
}

// TestRoundTripPreservesBehaviour is the printer's core contract: for
// every challenge and several author styles, parse the rendered source,
// reprint it under each printer config, and check the reprinted program
// behaves identically under the interpreter.
func TestRoundTripPreservesBehaviour(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	profiles := []style.Profile{
		style.Random("P1", rng),
		style.Random("P2", rng),
		style.Random("P3", rng),
	}
	for _, c := range challenge.All() {
		c := c
		t.Run(c.Key(), func(t *testing.T) {
			run, err := ir.Synthesize(c.Prog, 3, rand.New(rand.NewSource(13)))
			if err != nil {
				t.Fatalf("Synthesize: %v", err)
			}
			for pi, prof := range profiles {
				src := codegen.Render(c.Prog, prof, int64(pi))
				tu, err := cppast.Parse(src)
				if err != nil {
					t.Fatalf("parse: %v", err)
				}
				for ci, cfg := range configs {
					printed := Print(tu, cfg)
					got, err := cppinterp.Run(printed, run.Input)
					if err != nil {
						t.Fatalf("profile %d config %d: %v\n--- printed ---\n%s", pi, ci, err, printed)
					}
					if got != run.Output {
						t.Fatalf("profile %d config %d: output mismatch\n got %q\nwant %q\n--- printed ---\n%s",
							pi, ci, got, run.Output, printed)
					}
				}
			}
		})
	}
}

// TestPrintIdempotent checks print(parse(print(parse(x)))) ==
// print(parse(x)) — reprinting a printed file changes nothing.
func TestPrintIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	prof := style.Random("Q", rng)
	for _, c := range challenge.All()[:6] {
		src := codegen.Render(c.Prog, prof, 1)
		for ci, cfg := range configs {
			once := Print(cppast.MustParse(src), cfg)
			twice := Print(cppast.MustParse(once), cfg)
			if once != twice {
				t.Fatalf("%s config %d not idempotent:\n--- once ---\n%s\n--- twice ---\n%s",
					c.Key(), ci, once, twice)
			}
		}
	}
}

func TestPrintStyleAxes(t *testing.T) {
	src := `#include <iostream>
using namespace std;
int main() {
    int n;
    cin >> n;
    if (n > 0) {
        n = n * 2 + 1;
    } else {
        n = 0;
    }
    double d = (double)n / 3;
    cout << d << endl;
    return 0;
}`
	tu := cppast.MustParse(src)

	allman := Print(tu, Config{Allman: true})
	if !strings.Contains(allman, "int main()\n{") {
		t.Errorf("Allman config printed K&R braces:\n%s", allman)
	}
	if !strings.Contains(allman, "else\n") {
		t.Errorf("Allman config printed cuddled else:\n%s", allman)
	}

	kr := Print(tu, Config{})
	if !strings.Contains(kr, "int main() {") || !strings.Contains(kr, "} else {") {
		t.Errorf("K&R config wrong:\n%s", kr)
	}

	tabs := Print(tu, Config{IndentTabs: true})
	if !strings.Contains(tabs, "\n\tint n;") {
		t.Errorf("tab config did not tab-indent:\n%s", tabs)
	}

	tight := Print(tu, Config{TightOps: true})
	if !strings.Contains(tight, "n*2+1") {
		t.Errorf("tight config kept spaces:\n%s", tight)
	}

	fc := Print(tu, Config{FunctionalCasts: true})
	if !strings.Contains(fc, "double(n)") {
		t.Errorf("functional-cast config kept C cast:\n%s", fc)
	}
	// Multi-word cast types cannot use functional syntax.
	tu2 := cppast.MustParse("int main() { long long x = (long long)1; return (int)x; }")
	fc2 := Print(tu2, Config{FunctionalCasts: true})
	if strings.Contains(fc2, "long long(") {
		t.Errorf("functional cast applied to multi-word type:\n%s", fc2)
	}
}

func TestPrintPreservesElseIfChain(t *testing.T) {
	src := "int main() { int x = 2, y; if (x == 1) y = 1; else if (x == 2) y = 4; else y = 9; return y; }"
	run := func(s string) string {
		out, err := cppinterp.Run(strings.ReplaceAll(s, "return y;", "printf(\"%d\",y); return 0;"), "")
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return out
	}
	want := run(src)
	for _, cfg := range configs {
		printed := Print(cppast.MustParse(src), cfg)
		if got := run(printed); got != want {
			t.Errorf("else-if chain broken by %+v:\n%s", cfg, printed)
		}
	}
}

func TestPrintDoWhileAndSwitch(t *testing.T) {
	src := `#include <cstdio>
int main() {
    int n = 3, s = 0;
    do {
        switch (n) {
        case 1:
            s += 10;
            break;
        default:
            s += 1;
        }
        n--;
    } while (n > 0);
    printf("%d\n", s);
    return 0;
}`
	want, err := cppinterp.Run(src, "")
	if err != nil {
		t.Fatalf("original: %v", err)
	}
	for ci, cfg := range configs {
		printed := Print(cppast.MustParse(src), cfg)
		got, err := cppinterp.Run(printed, "")
		if err != nil {
			t.Fatalf("config %d: %v\n%s", ci, err, printed)
		}
		if got != want {
			t.Errorf("config %d: %q != %q\n%s", ci, got, want, printed)
		}
	}
}

func TestPrintComments(t *testing.T) {
	tu := cppast.MustParse("int main() { int x = 1; return x; }")
	main := tu.Function("main")
	stmts := []cppast.Node{cppast.NewComment("setup", false)}
	stmts = append(stmts, main.Body.Stmts...)
	main.Body.Stmts = stmts
	out := Print(tu, Config{})
	if !strings.Contains(out, "// setup") {
		t.Errorf("line comment missing:\n%s", out)
	}
	main.Body.Stmts[0] = cppast.NewComment("setup", true)
	out = Print(tu, Config{})
	if !strings.Contains(out, "/* setup */") {
		t.Errorf("block comment missing:\n%s", out)
	}
}

func TestPrintUnknownPreserved(t *testing.T) {
	src := "int main() { auto f = [](int v) { return v; }; int x = 1; return x; }"
	tu := cppast.MustParse(src)
	out := Print(tu, Config{})
	if !strings.Contains(out, "[") {
		t.Errorf("unknown region dropped:\n%s", out)
	}
}

func ExamplePrint() {
	tu := cppast.MustParse("int main(){int x=1;if(x) x++;return x;}")
	fmt.Println(Print(tu, Config{IndentWidth: 2}))
	// Output:
	// int main() {
	//   int x = 1;
	//   if (x)
	//     x++;
	//   return x;
	// }
}
