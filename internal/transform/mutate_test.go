package transform

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"gptattr/internal/challenge"
	"gptattr/internal/codegen"
	"gptattr/internal/cppast"
	"gptattr/internal/cppprint"
	"gptattr/internal/ir"
	"gptattr/internal/style"
)

// TestVerifierCatchesSemanticMutations is the failure-injection test
// for the whole verification pathway: semantically-mutated programs
// must be rejected by Verify. A small fraction of mutants can be
// behaviourally equivalent on the sampled inputs (mutation in a branch
// the inputs never take), so the assertion is a high kill rate, not
// 100%.
func TestVerifierCatchesSemanticMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	killed, total := 0, 0
	for i, c := range challenge.All() {
		prof := style.Random(fmt.Sprintf("M%d", i), rng)
		src := codegen.Render(c.Prog, prof, int64(i))
		run, err := ir.Synthesize(c.Prog, 4, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 4; trial++ {
			tu := cppast.MustParse(src)
			if !MutateSemantics(tu, rng) {
				t.Fatalf("%s: no mutation site found", c.Key())
			}
			mutant := cppprint.Print(tu, cppprint.Config{})
			if mutant == cppprint.Print(cppast.MustParse(src), cppprint.Config{}) {
				continue // mutation produced identical text; skip
			}
			total++
			if err := Verify(src, mutant, []string{run.Input}); err != nil {
				killed++
			}
		}
	}
	if total == 0 {
		t.Fatal("no mutants generated")
	}
	rate := float64(killed) / float64(total)
	t.Logf("mutation kill rate: %d/%d = %.0f%%", killed, total, 100*rate)
	if rate < 0.7 {
		t.Errorf("kill rate %.2f too low; the verifier misses behaviour changes", rate)
	}
}

// TestMutateNoSites checks the degenerate case.
func TestMutateNoSites(t *testing.T) {
	tu := cppast.MustParse("void f() {}")
	if MutateSemantics(tu, rand.New(rand.NewSource(1))) {
		t.Error("mutation site reported in empty function")
	}
}

// TestTransformPipelineNeverMutatesSemantics is the converse
// property-based check: random pass compositions over random sources
// must always verify. This is the strongest guarantee the simulated
// ChatGPT relies on.
func TestTransformPipelineNeverMutatesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	namings := []style.Naming{style.NamingCamel, style.NamingSnake, style.NamingHungarian, style.NamingShort, style.NamingVerbose}
	for trial := 0; trial < 40; trial++ {
		c := challenge.All()[rng.Intn(24)]
		prof := style.Random(fmt.Sprintf("P%d", trial), rng)
		src := codegen.Render(c.Prog, prof, int64(trial))
		run, err := ir.Synthesize(c.Prog, 3, rand.New(rand.NewSource(int64(trial))))
		if err != nil {
			t.Fatal(err)
		}
		tu := cppast.MustParse(src)
		// Random pass composition.
		if rng.Intn(2) == 0 {
			Rename(tu, namings[rng.Intn(len(namings))])
		}
		switch rng.Intn(3) {
		case 0:
			ConvertIO(tu, ToStdio)
		case 1:
			ConvertIO(tu, ToStreams)
		}
		if rng.Intn(2) == 0 {
			ForToWhile(tu)
		}
		if rng.Intn(2) == 0 {
			SetUsingNamespace(tu, rng.Intn(2) == 0)
		}
		if rng.Intn(2) == 0 {
			SetIncrementStyle(tu, rng.Intn(2) == 0)
		}
		if rng.Intn(2) == 0 {
			ExtractSolve(tu, "solveCase")
		} else {
			InlineVoidCalls(tu)
		}
		if rng.Intn(2) == 0 {
			InjectComments(tu, 0.5, rng.Intn(2) == 0, rng)
		}
		RegenerateHeaders(tu, rng.Intn(2) == 0)
		printed := cppprint.Print(tu, cppprint.Config{
			IndentTabs:  rng.Intn(2) == 0,
			Allman:      rng.Intn(2) == 0,
			TightOps:    rng.Intn(2) == 0,
			TightCommas: rng.Intn(2) == 0,
		})
		if err := Verify(src, printed, []string{run.Input}); err != nil {
			t.Fatalf("trial %d (%s): random pipeline changed behaviour: %v\n--- original ---\n%s\n--- transformed ---\n%s",
				trial, c.Key(), err, src, printed)
		}
	}
}

// MutateSemantics applies one random semantics-changing mutation to the
// tree (operator swap, off-by-one constant, comparison flip) and
// reports whether a mutation site was found. It exists as the negative
// control for the behaviour verifier: a pipeline that silently altered
// semantics the way these mutations do must be caught by Verify.
func MutateSemantics(tu *cppast.TranslationUnit, rng *rand.Rand) bool {
	var sites []func()
	cppast.Walk(tu, func(n cppast.Node, _ int) bool {
		switch e := n.(type) {
		case *cppast.BinaryExpr:
			switch e.Op {
			case "+":
				e := e
				sites = append(sites, func() { e.Op = "-" })
			case "-":
				e := e
				sites = append(sites, func() { e.Op = "+" })
			case "*":
				e := e
				sites = append(sites, func() { e.Op = "+" })
			case "<":
				e := e
				sites = append(sites, func() { e.Op = "<=" })
			case "<=":
				e := e
				sites = append(sites, func() { e.Op = "<" })
			case ">":
				e := e
				sites = append(sites, func() { e.Op = ">=" })
			case ">=":
				e := e
				sites = append(sites, func() { e.Op = ">" })
			}
		case *cppast.Lit:
			if e.LitKind == "int" {
				if v, err := strconv.ParseInt(e.Text, 10, 64); err == nil {
					e := e
					sites = append(sites, func() { e.Text = strconv.FormatInt(v+1, 10) })
				}
			}
		}
		return true
	})
	if len(sites) == 0 {
		return false
	}
	sites[rng.Intn(len(sites))]()
	return true
}
