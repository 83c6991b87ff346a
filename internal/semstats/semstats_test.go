package semstats

import (
	"context"
	"reflect"
	"testing"

	"gptattr/internal/cppast"
	"gptattr/internal/cppcheck"
)

func analyze(t *testing.T, src string) *FileStats {
	t.Helper()
	tu, err := cppast.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Analyze(tu)
}

func fn(t *testing.T, fs *FileStats, name string) *FuncStats {
	t.Helper()
	for _, f := range fs.Funcs {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("function %q not analyzed", name)
	return nil
}

const forSrc = `#include <iostream>
using namespace std;
int main() {
    int s = 0;
    for (int i = 0; i < 10; i++) {
        s += i;
    }
    cout << s << endl;
    return 0;
}`

const whileSrc = `#include <iostream>
using namespace std;
int main() {
    int s = 0;
    int i = 0;
    while (i < 10) {
        s += i;
        i++;
    }
    cout << s << endl;
    return 0;
}`

// The compact graph is the for/while normal form: both loop spellings
// must produce identical shape, loop, and back-edge numbers.
func TestForWhileShapeIdentical(t *testing.T) {
	a := fn(t, analyze(t, forSrc), "main")
	b := fn(t, analyze(t, whileSrc), "main")
	type shape struct {
		blocks, edges, branches, cyclo, back, loops, maxDepth int
	}
	sa := shape{a.Blocks, a.Edges, a.Branches, a.Cyclomatic, a.BackEdges, a.Loops, a.MaxLoopDepth}
	sb := shape{b.Blocks, b.Edges, b.Branches, b.Cyclomatic, b.BackEdges, b.Loops, b.MaxLoopDepth}
	if sa != sb {
		t.Errorf("for/while shapes differ: for=%+v while=%+v", sa, sb)
	}
	if a.Loops != 1 || a.MaxLoopDepth != 1 || a.BackEdges != 1 {
		t.Errorf("single loop expected: %+v", sa)
	}
}

func TestLoopNestingDepthProfile(t *testing.T) {
	src := `int main() {
    int s = 0;
    for (int i = 0; i < 3; i++) {
        for (int j = 0; j < 3; j++) {
            for (int k = 0; k < 3; k++) {
                s += i * j * k;
            }
        }
        s += i;
    }
    while (s > 0) { s -= 2; }
    return s;
}`
	st := fn(t, analyze(t, src), "main")
	if st.Loops != 4 {
		t.Errorf("Loops = %d, want 4", st.Loops)
	}
	if st.MaxLoopDepth != 3 {
		t.Errorf("MaxLoopDepth = %d, want 3", st.MaxLoopDepth)
	}
	if want := [3]int{2, 1, 1}; st.LoopsAtDepth != want {
		t.Errorf("LoopsAtDepth = %v, want %v", st.LoopsAtDepth, want)
	}
}

// TestLoopScratchRetainsLinearCapacity pins the loop pass's retained
// storage to O(nodes): after a 512-deep nested while, the loop scratch
// holds at most 8 int32 per compacted node. A per-loop body row would
// hold O(nodes²).
func TestLoopScratchRetainsLinearCapacity(t *testing.T) {
	tu, err := cppast.Parse(deepShapes(512)[1])
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	fs, err := sc.AnalyzeContext(context.Background(), tu)
	if err != nil {
		t.Fatal(err)
	}
	st := fn(t, fs, "main")
	if st.Loops != 512 || st.MaxLoopDepth != 512 || st.BackEdges != 512 {
		t.Fatalf("Loops, MaxLoopDepth, BackEdges = %d, %d, %d, want 512 each", st.Loops, st.MaxLoopDepth, st.BackEdges)
	}
	ls := &sc.loops
	if held := cap(ls.rep) + cap(ls.parent) + cap(ls.depth) + cap(ls.stack); held > 8*st.Blocks {
		t.Errorf("loop scratch holds %d int32 for %d nodes, want <= 8 per node", held, st.Blocks)
	}
}

func TestStraightLineFunction(t *testing.T) {
	src := `int add(int a, int b) { return a + b; }`
	st := fn(t, analyze(t, src), "add")
	if st.Cyclomatic != 1 {
		t.Errorf("Cyclomatic = %d, want 1 (straight line)", st.Cyclomatic)
	}
	if st.Loops != 0 || st.BackEdges != 0 || st.Branches != 0 {
		t.Errorf("straight line function has loops/branches: %+v", st)
	}
}

func TestIfElseCyclomatic(t *testing.T) {
	src := `int sign(int x) {
    if (x > 0) { return 1; }
    else if (x < 0) { return -1; }
    return 0;
}`
	st := fn(t, analyze(t, src), "sign")
	if st.Cyclomatic != 3 {
		t.Errorf("Cyclomatic = %d, want 3 (two decisions)", st.Cyclomatic)
	}
	if st.Branches != 2 {
		t.Errorf("Branches = %d, want 2", st.Branches)
	}
}

func TestDominatorProperties(t *testing.T) {
	src := `int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        if (i % 2 == 0) { s += i; } else { s -= i; }
    }
    return s;
}`
	tu, err := cppast.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g := compact(buildCFGFor(t, tu, "f"))
	idom := dominators(g)
	if idom[0] != 0 {
		t.Errorf("idom[entry] = %d, want 0", idom[0])
	}
	for i := 1; i < len(idom); i++ {
		if idom[i] < 0 || idom[i] >= i {
			t.Errorf("idom[%d] = %d: must be in [0,%d)", i, idom[i], i)
		}
		if !dominates(idom, 0, i) {
			t.Errorf("entry does not dominate node %d", i)
		}
	}
}

func buildCFGFor(t *testing.T, tu *cppast.TranslationUnit, name string) *cppcheck.CFG {
	t.Helper()
	for _, f := range tu.Functions() {
		if f.Name == name && f.Body != nil {
			return NewFuncContext(f, nil, nil).CFG()
		}
	}
	t.Fatalf("function %q not found", name)
	return nil
}

func TestCallGraphFanAndRecursion(t *testing.T) {
	src := `int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }
int twice(int x) { return fact(x) + fact(x); }
int main() { return twice(3) + fact(2); }`
	fs := analyze(t, src)
	if !fn(t, fs, "fact").Recursive {
		t.Error("fact not marked recursive")
	}
	if fn(t, fs, "twice").Recursive || fn(t, fs, "main").Recursive {
		t.Error("non-recursive function marked recursive")
	}
	// Fan-in counts distinct callers, the recursive self-edge included.
	if got := fn(t, fs, "fact").FanIn; got != 3 {
		t.Errorf("fact FanIn = %d, want 3 (fact, twice, main)", got)
	}
	if got := fn(t, fs, "main").FanOut; got != 2 {
		t.Errorf("main FanOut = %d, want 2 (twice, fact)", got)
	}
	if fs.CallEdges != 4 {
		t.Errorf("CallEdges = %d, want 4", fs.CallEdges)
	}
	if fs.RecursiveFuncs != 1 {
		t.Errorf("RecursiveFuncs = %d, want 1", fs.RecursiveFuncs)
	}
}

func TestMutualRecursion(t *testing.T) {
	src := `int odd(int n);
int even(int n) { if (n == 0) return 1; return odd(n - 1); }
int odd(int n) { if (n == 0) return 0; return even(n - 1); }
int main() { return even(4); }`
	fs := analyze(t, src)
	if !fn(t, fs, "even").Recursive || !fn(t, fs, "odd").Recursive {
		t.Error("mutually recursive pair not detected")
	}
	if fn(t, fs, "main").Recursive {
		t.Error("main wrongly recursive")
	}
}

// Shape grams must be identical under consistent renaming: every
// user-chosen name is erased to its binding class.
func TestShapeGramsRenameInvariant(t *testing.T) {
	a := `int total;
int helper(int x) { return x * 2; }
int main() { int n; std::cin >> n; total = helper(n) + 1; return total; }`
	b := `int accumulated_sum;
int doubleIt(int value) { return value * 2; }
int main() { int count; std::cin >> count; accumulated_sum = doubleIt(count) + 1; return accumulated_sum; }`
	fa := analyze(t, a)
	fb := analyze(t, b)
	for i := range fa.Funcs {
		if !reflect.DeepEqual(fa.Funcs[i].Grams, fb.Funcs[i].Grams) {
			t.Errorf("grams differ for func %d:\n a=%v\n b=%v",
				i, fa.Funcs[i].Grams, fb.Funcs[i].Grams)
		}
	}
}

func TestDefUseAndLiveStats(t *testing.T) {
	src := `int main() {
    int a = 1;
    int b = a + 2;
    int c = a + b;
    return c;
}`
	st := fn(t, analyze(t, src), "main")
	if st.Chains != 3 {
		t.Errorf("Chains = %d, want 3", st.Chains)
	}
	// a is used twice, b once, c once.
	if st.ChainUses != 4 {
		t.Errorf("ChainUses = %d, want 4", st.ChainUses)
	}
	if st.MaxChainLen != 2 {
		t.Errorf("MaxChainLen = %d, want 2", st.MaxChainLen)
	}
	if st.Vars != 3 {
		t.Errorf("Vars = %d, want 3", st.Vars)
	}
	// A single-block body keeps every variable block-local: no live-out.
	if st.MaxLiveWidth != 0 {
		t.Errorf("MaxLiveWidth = %d, want 0 for one-block body", st.MaxLiveWidth)
	}
	// A loop-carried variable must be live across blocks.
	looped := fn(t, analyze(t, forSrc), "main")
	if looped.MaxLiveWidth <= 0 {
		t.Errorf("loop MaxLiveWidth = %d, want > 0", looped.MaxLiveWidth)
	}
	if looped.MeanLiveWidth <= 0 {
		t.Errorf("loop MeanLiveWidth = %v, want > 0", looped.MeanLiveWidth)
	}
}

func TestPassCaching(t *testing.T) {
	tu, err := cppast.Parse(forSrc)
	if err != nil {
		t.Fatal(err)
	}
	var c *FuncContext
	for _, f := range tu.Functions() {
		if f.Name == "main" {
			c = NewFuncContext(f, map[string]*cppast.FuncDecl{"main": f}, nil)
		}
	}
	g1 := c.compactGraph()
	d1 := c.dominatorTree()
	if c.compactGraph() != g1 {
		t.Error("compact graph rebuilt instead of cached")
	}
	if &c.dominatorTree()[0] != &d1[0] {
		t.Error("dominator tree rebuilt instead of cached")
	}
	l1, _ := c.loopNest()
	l2, _ := c.loopNest()
	if len(l1) != len(l2) {
		t.Error("loop nest unstable across cached calls")
	}
}
