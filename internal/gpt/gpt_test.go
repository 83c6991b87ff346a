package gpt

import (
	"math/rand"
	"testing"

	"gptattr/internal/challenge"
	"gptattr/internal/codegen"
	"gptattr/internal/cppinterp"
	"gptattr/internal/ir"
	"gptattr/internal/style"
	"gptattr/internal/transform"
)

func TestModelDeterministic(t *testing.T) {
	a := NewModel(Config{Seed: 1})
	b := NewModel(Config{Seed: 1})
	for i := 0; i < 20; i++ {
		if a.SampleStyle() != b.SampleStyle() {
			t.Fatal("same-seed models diverge")
		}
	}
}

func TestRepertoireBounded(t *testing.T) {
	m := NewModel(Config{Seed: 2, NumStyles: 7})
	if len(m.Styles()) != 7 {
		t.Fatalf("repertoire = %d styles, want 7", len(m.Styles()))
	}
	seen := map[int]bool{}
	for i := 0; i < 2000; i++ {
		si := m.SampleStyle()
		if si < 0 || si >= 7 {
			t.Fatalf("style index %d out of range", si)
		}
		seen[si] = true
	}
	if len(seen) < 3 {
		t.Errorf("sampling hit only %d styles in 2000 draws", len(seen))
	}
}

func TestSamplingIsSkewed(t *testing.T) {
	m := NewModel(Config{Seed: 3, Skew: 1.5})
	counts := make([]int, len(m.Styles()))
	n := 5000
	for i := 0; i < n; i++ {
		counts[m.SampleStyle()]++
	}
	if counts[0] <= counts[len(counts)-1] {
		t.Errorf("head style (%d draws) not favoured over tail (%d draws)",
			counts[0], counts[len(counts)-1])
	}
	if float64(counts[0])/float64(n) < 0.25 {
		t.Errorf("head style got %.1f%%, want a dominant share", 100*float64(counts[0])/float64(n))
	}
}

func TestGenerateUsesRepertoire(t *testing.T) {
	m := NewModel(Config{Seed: 4})
	c, err := challenge.Get(2017, "C1")
	if err != nil {
		t.Fatal(err)
	}
	run, err := ir.Synthesize(c.Prog, 3, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	src, si := m.Generate(c.Prog)
	if si < 0 || si >= len(m.Styles()) {
		t.Fatalf("style index %d out of range", si)
	}
	got, err := cppinterp.Run(src, run.Input)
	if err != nil {
		t.Fatalf("generated code fails: %v\n%s", err, src)
	}
	if got != run.Output {
		t.Fatalf("generated code wrong:\n got %q\nwant %q", got, run.Output)
	}
}

// TestNCTAndCTPreserveBehaviour is the core simulator contract: every
// transformed variant still solves the challenge.
func TestNCTAndCTPreserveBehaviour(t *testing.T) {
	m := NewModel(Config{Seed: 5})
	rng := rand.New(rand.NewSource(9))
	for _, c := range []string{"C1", "C4", "C8"} {
		ch, err := challenge.Get(2017, c)
		if err != nil {
			t.Fatal(err)
		}
		run, err := ir.Synthesize(ch.Prog, 3, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		prof := style.Random("H-"+c, rng)
		src := codegen.Render(ch.Prog, prof, 1)
		inputs := []string{run.Input}

		nct, err := m.NCT(src, 6, inputs)
		if err != nil {
			t.Fatalf("NCT: %v", err)
		}
		if len(nct) != 6 {
			t.Fatalf("NCT returned %d rounds, want 6", len(nct))
		}
		for i, r := range nct {
			if err := transform.Verify(src, r.Source, inputs); err != nil {
				t.Fatalf("NCT round %d not equivalent: %v", i, err)
			}
		}

		ct, err := m.CT(src, 6, inputs)
		if err != nil {
			t.Fatalf("CT: %v", err)
		}
		for i, r := range ct {
			if err := transform.Verify(src, r.Source, inputs); err != nil {
				t.Fatalf("CT round %d not equivalent: %v", i, err)
			}
		}
	}
}

// TestCTStickier checks the mechanism behind the paper's CT < NCT
// style-diversity finding: chained rounds reuse the previous style more
// often than independent rounds.
func TestCTStickier(t *testing.T) {
	m := NewModel(Config{Seed: 6, Stickiness: 0.8})
	ch, err := challenge.Get(2017, "C2")
	if err != nil {
		t.Fatal(err)
	}
	src, _ := m.Generate(ch.Prog)

	distinct := func(rs []Result) int {
		set := map[int]bool{}
		for _, r := range rs {
			set[r.StyleIndex] = true
		}
		return len(set)
	}
	nct, err := m.NCT(src, 20, nil)
	if err != nil {
		t.Fatalf("NCT: %v", err)
	}
	ct, err := m.CT(src, 20, nil)
	if err != nil {
		t.Fatalf("CT: %v", err)
	}
	if distinct(ct) > distinct(nct) {
		t.Errorf("CT produced %d distinct styles, NCT %d; expected CT <= NCT",
			distinct(ct), distinct(nct))
	}
}

func TestTransformChangesSurface(t *testing.T) {
	m := NewModel(Config{Seed: 7, Thoroughness: 1.0})
	ch, err := challenge.Get(2018, "C5")
	if err != nil {
		t.Fatal(err)
	}
	prof := style.Random("Z", rand.New(rand.NewSource(2)))
	src := codegen.Render(ch.Prog, prof, 3)
	r, err := m.Transform(src, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Source == src {
		t.Error("transformation left source identical")
	}
}

func TestTransformOnPaperFigure3(t *testing.T) {
	// The simulator must also handle externally-written code (the
	// paper's Figure 3), not just its own generator's output.
	src := `#include <iostream>
#include <cstdio>
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
	input := "2\n10 2\n3 2 8 4\n100 3\n0 5 10 2 40 3\n"
	m := NewModel(Config{Seed: 8})
	rs, err := m.NCT(src, 5, []string{input})
	if err != nil {
		t.Fatalf("NCT on figure 3: %v", err)
	}
	for i, r := range rs {
		if err := transform.Verify(src, r.Source, []string{input}); err != nil {
			t.Errorf("round %d: %v", i, err)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.NumStyles != 12 {
		t.Errorf("default NumStyles = %d, want 12 (paper's observed max)", c.NumStyles)
	}
	if c.Skew <= 0 || c.Stickiness <= 0 || c.Thoroughness <= 0 {
		t.Error("defaults not applied")
	}
}

// Styles exposes the repertoire (copy).
func (m *Model) Styles() []style.Profile {
	out := make([]style.Profile, len(m.styles))
	copy(out, m.styles)
	return out
}
