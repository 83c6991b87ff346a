package semstats

// The FuncContext pipeline (compact/dominators/naturalLoops/newShaper
// plus cppcheck's DefUseChains/LiveWidths) is the reference
// implementation for differential testing: the scratch pipeline behind
// AnalyzeContext must reproduce its FileStats bit-for-bit, including
// float fields and gram maps, on any input. The reference path is the
// pre-scratch implementation kept verbatim.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gptattr/internal/codegen"
	"gptattr/internal/cppast"
	"gptattr/internal/cppcheck"
	"gptattr/internal/gpt"
	"gptattr/internal/ir"
	"gptattr/internal/style"
)

// refAnalyze is the pre-scratch AnalyzeContext body: per-function
// FuncContext pipeline plus buildCallGraph, map-based throughout.
func refAnalyze(tu *cppast.TranslationUnit) *FileStats {
	funcs := make(map[string]*cppast.FuncDecl)
	for _, f := range tu.Functions() {
		if f.Body != nil {
			funcs[f.Name] = f
		}
	}
	globals := make(map[string]bool)
	for _, d := range tu.Decls {
		if vd, ok := d.(*cppast.VarDecl); ok {
			for _, dd := range vd.Names {
				globals[dd.Name] = true
			}
		}
	}
	cg := buildCallGraph(tu)
	out := &FileStats{CallEdges: cg.edges}
	seen := make(map[string]bool)
	for _, f := range tu.Functions() {
		if f.Body == nil || seen[f.Name] {
			continue
		}
		seen[f.Name] = true
		st := NewFuncContext(f, funcs, globals).Stats()
		st.FanOut = len(cg.callees[f.Name])
		st.FanIn = cg.fanIn[f.Name]
		st.Recursive = cg.recursive[f.Name]
		if st.Recursive {
			out.RecursiveFuncs++
		}
		out.Funcs = append(out.Funcs, st)
	}
	return out
}

// diffStats fails the test with the first field-level mismatch between
// the two FileStats. Float fields compare by exact bit pattern.
func diffStats(t *testing.T, tag string, want, got *FileStats) {
	t.Helper()
	if want.CallEdges != got.CallEdges {
		t.Errorf("%s: CallEdges = %d, want %d", tag, got.CallEdges, want.CallEdges)
	}
	if want.RecursiveFuncs != got.RecursiveFuncs {
		t.Errorf("%s: RecursiveFuncs = %d, want %d", tag, got.RecursiveFuncs, want.RecursiveFuncs)
	}
	if len(want.Funcs) != len(got.Funcs) {
		t.Fatalf("%s: %d funcs, want %d", tag, len(got.Funcs), len(want.Funcs))
	}
	bits := math.Float64bits
	for i, w := range want.Funcs {
		g := got.Funcs[i]
		ftag := fmt.Sprintf("%s func %q", tag, w.Name)
		if g.Name != w.Name {
			t.Fatalf("%s: func[%d] = %q, want %q", tag, i, g.Name, w.Name)
		}
		if g.Unsupported != w.Unsupported {
			t.Errorf("%s: Unsupported = %v, want %v", ftag, g.Unsupported, w.Unsupported)
		}
		ints := [][2]int{
			{g.Blocks, w.Blocks}, {g.Edges, w.Edges}, {g.Branches, w.Branches},
			{g.Cyclomatic, w.Cyclomatic}, {g.BackEdges, w.BackEdges},
			{g.Loops, w.Loops}, {g.MaxLoopDepth, w.MaxLoopDepth},
			{g.LoopsAtDepth[0], w.LoopsAtDepth[0]}, {g.LoopsAtDepth[1], w.LoopsAtDepth[1]},
			{g.LoopsAtDepth[2], w.LoopsAtDepth[2]},
			{g.Chains, w.Chains}, {g.ChainUses, w.ChainUses}, {g.MaxChainLen, w.MaxChainLen},
			{g.ChainsAtLen[0], w.ChainsAtLen[0]}, {g.ChainsAtLen[1], w.ChainsAtLen[1]},
			{g.ChainsAtLen[2], w.ChainsAtLen[2]}, {g.ChainsAtLen[3], w.ChainsAtLen[3]},
			{g.Vars, w.Vars}, {g.LiveWidthSum, w.LiveWidthSum}, {g.MaxLiveWidth, w.MaxLiveWidth},
			{g.FanOut, w.FanOut}, {g.FanIn, w.FanIn},
		}
		names := []string{
			"Blocks", "Edges", "Branches", "Cyclomatic", "BackEdges",
			"Loops", "MaxLoopDepth", "LoopsAtDepth0", "LoopsAtDepth1", "LoopsAtDepth2",
			"Chains", "ChainUses", "MaxChainLen",
			"ChainsAtLen0", "ChainsAtLen1", "ChainsAtLen2", "ChainsAtLen3",
			"Vars", "LiveWidthSum", "MaxLiveWidth", "FanOut", "FanIn",
		}
		for k, pair := range ints {
			if pair[0] != pair[1] {
				t.Errorf("%s: %s = %d, want %d", ftag, names[k], pair[0], pair[1])
			}
		}
		if g.Recursive != w.Recursive {
			t.Errorf("%s: Recursive = %v, want %v", ftag, g.Recursive, w.Recursive)
		}
		floats := [][2]float64{
			{g.BranchFactor, w.BranchFactor},
			{g.MeanChainLen, w.MeanChainLen},
			{g.MeanLiveWidth, w.MeanLiveWidth},
		}
		fnames := []string{"BranchFactor", "MeanChainLen", "MeanLiveWidth"}
		for k, pair := range floats {
			if bits(pair[0]) != bits(pair[1]) {
				t.Errorf("%s: %s = %v (bits %x), want %v (bits %x)",
					ftag, fnames[k], pair[0], bits(pair[0]), pair[1], bits(pair[1]))
			}
		}
		gg, wg := gramMap(g.Grams), gramMap(w.Grams)
		if len(gg) != len(g.Grams) {
			t.Errorf("%s: a gram is listed twice", ftag)
		}
		if len(gg) != len(wg) {
			t.Errorf("%s: %d grams, want %d", ftag, len(gg), len(wg))
		}
		for gram, n := range wg {
			if gg[gram] != n {
				t.Errorf("%s: gram %q = %d, want %d", ftag, gram, gg[gram], n)
			}
		}
		for gram := range gg {
			if _, ok := wg[gram]; !ok {
				t.Errorf("%s: extra gram %q", ftag, gram)
			}
		}
	}
}

// gramMap turns a gram list into a count map.
func gramMap(grams []GramCount) map[string]int {
	out := make(map[string]int, len(grams))
	for _, g := range grams {
		out[g.Gram] = g.N
	}
	return out
}

// referenceCorpus mixes handwritten edge cases (unreachable code,
// infinite loops, switches, recursion, shadowing) with generated
// programs across random styles.
func referenceCorpus(t *testing.T) []string {
	t.Helper()
	srcs := []string{
		forSrc,
		whileSrc,
		`int f();
int g(int x) { return x; }
int main() { return g(1); }`,
		`#include <iostream>
using namespace std;
int total;
int helper(int n) {
    if (n <= 0) return 0;
    return helper(n - 1) + n;
}
int main() {
    int t;
    cin >> t;
    while (t--) {
        int n;
        cin >> n;
        total += helper(n);
    }
    cout << total << endl;
    return 0;
}`,
		`int main() {
    int x = 0;
    for (;;) {
        x++;
        if (x > 3) { continue; }
    }
    return x;
}`,
		`int main() {
    int a, b = 2;
    switch (b) {
    case 1: a = 1; break;
    case 2: a = 2;
    default: a = 3; break;
    }
    return a;
    a = 9;
}`,
		`int main() {
    int i = 0;
    do { i += 2; } while (i < 10);
    int i2 = i ? i : -i;
    return i2;
}`,
	}
	rng := rand.New(rand.NewSource(993311))
	model := gpt.NewModel(gpt.Config{})
	for i := 0; i < 12; i++ {
		prog := ir.RandomProgram(rng)
		srcs = append(srcs, codegen.Render(prog, style.Random(fmt.Sprintf("sr%d", i), rng), rng.Int63()))
		gsrc, _ := model.Generate(prog)
		srcs = append(srcs, gsrc)
	}
	return srcs
}

// TestScratchMatchesReference pins the scratch pipeline to the
// FuncContext pipeline bit-for-bit, reusing ONE scratch across the
// whole corpus so cross-request state reuse is exercised.
func TestScratchMatchesReference(t *testing.T) {
	sc := NewScratch()
	for i, src := range referenceCorpus(t) {
		tu, err := cppast.Parse(src)
		if err != nil {
			t.Fatalf("src %d: parse: %v", i, err)
		}
		want := refAnalyze(tu)
		got, err := sc.AnalyzeContext(context.Background(), tu)
		if err != nil {
			t.Fatalf("src %d: AnalyzeContext: %v", i, err)
		}
		diffStats(t, fmt.Sprintf("src %d", i), want, got)
	}
}

// TestScratchReleaseThenReuse pins that Release between units does not
// corrupt later analyses.
func TestScratchReleaseThenReuse(t *testing.T) {
	sc := NewScratch()
	tu, err := cppast.Parse(forSrc)
	if err != nil {
		t.Fatal(err)
	}
	first, err := sc.AnalyzeContext(context.Background(), tu)
	if err != nil {
		t.Fatal(err)
	}
	firstBlocks := fn(t, first, "main").Blocks
	sc.Release()
	second, err := sc.AnalyzeContext(context.Background(), tu)
	if err != nil {
		t.Fatal(err)
	}
	diffStats(t, "post-release", refAnalyze(tu), second)
	if fn(t, second, "main").Blocks != firstBlocks {
		t.Errorf("Blocks changed across Release: %d then %d", firstBlocks, fn(t, second, "main").Blocks)
	}
}

// TestCompactorMatchesReference pins cppcheck's one-sweep compaction
// to the reference compact() node for node: same order, statements,
// branch condition and edge lists, reusing one cppcheck.Scratch across
// the corpus and its deep shapes.
func TestCompactorMatchesReference(t *testing.T) {
	var sc cppcheck.Scratch
	srcs := append(referenceCorpus(t), deepShapes(48)...)
	for i, src := range srcs {
		tu, err := cppast.Parse(src)
		if err != nil {
			t.Fatalf("src %d: parse: %v", i, err)
		}
		for _, f := range tu.Functions() {
			g := sc.Build(f)
			if g == nil {
				continue
			}
			want, got := compact(g), sc.Compact(g)
			tag := fmt.Sprintf("src %d func %q", i, f.Name)
			if len(got) != len(want.nodes) {
				t.Fatalf("%s: %d nodes, want %d", tag, len(got), len(want.nodes))
			}
			for j, w := range want.nodes {
				nd := got[j]
				if !slices.Equal(nd.Stmts, w.stmts) || nd.Cond != w.cond ||
					!slices.Equal(nd.Succs, w.succs) || !slices.Equal(nd.Preds, w.preds) {
					t.Fatalf("%s: node %d differs from the reference", tag, j)
				}
			}
		}
	}
}

// deepShapes renders chain-heavy functions n levels deep: nested ifs
// and whiles, an else-if chain, and straight-line statements split by
// empty blocks.
func deepShapes(n int) []string {
	rep := func(s string) string { return strings.Repeat(s, n) }
	var elseIf strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&elseIf, "if (x == %d) y = %d; else ", i, i)
	}
	return []string{
		"int main() { int x = 1, y = 0; " + rep("if (x) { y++; ") + rep("} y--; ") + "return y; }",
		"int main() { int x = 1, y = 0; " + rep("while (x) { y++; ") + "x = 0; " + rep("} ") + "return y; }",
		"int main() { int x = 1, y = 0; " + elseIf.String() + "y = -1; return y; }",
		"int main() { int y = 0; " + rep("{ y = y + 1; { } } ") + "for (;;) { } }",
	}
}
