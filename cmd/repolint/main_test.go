package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func lint(t *testing.T, root string) (int, string) {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	code, runErr := run([]string{"-root", root}, tmp)
	if err := tmp.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil && code != 2 {
		t.Fatalf("unexpected error %v with exit %d", runErr, code)
	}
	return code, string(data)
}

func TestTimeNowFlaggedInDeterministicPkg(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/corpus/gen.go": `package corpus

import "time"

func Stamp() int64 { return time.Now().Unix() }
`,
	})
	code, out := lint(t, root)
	if code != 1 || !strings.Contains(out, "time.Now") {
		t.Fatalf("want time.Now finding, exit %d:\n%s", code, out)
	}
}

func TestTimeNowAllowedOutsidePipeline(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/serve/clock.go": `package serve

import "time"

func Stamp() int64 { return time.Now().Unix() }

var _ = Stamp
`,
	})
	if code, out := lint(t, root); code != 0 {
		t.Fatalf("serve may use time.Now, exit %d:\n%s", code, out)
	}
}

func TestUnseededRandFlagged(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/ml/pick.go": `package ml

import "math/rand"

func Pick(n int) int { return rand.Intn(n) }
`,
	})
	code, out := lint(t, root)
	if code != 1 || !strings.Contains(out, "math/rand.Intn") {
		t.Fatalf("want unseeded rand finding, exit %d:\n%s", code, out)
	}
}

func TestSeededRandAllowed(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/ml/pick.go": `package ml

import "math/rand"

func Pick(rng *rand.Rand, n int) int { return rng.Intn(n) }

func NewRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

var _, _ = Pick, NewRng
`,
	})
	if code, out := lint(t, root); code != 0 {
		t.Fatalf("seeded rand must pass, exit %d:\n%s", code, out)
	}
}

func TestRenamedImportStillCaught(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/transform/r.go": `package transform

import mr "math/rand"

func Roll() int { return mr.Int() }
`,
	})
	code, out := lint(t, root)
	if code != 1 || !strings.Contains(out, "math/rand.Int") {
		t.Fatalf("aliased import must still be caught, exit %d:\n%s", code, out)
	}
}

func TestIgnoredCloseFlagged(t *testing.T) {
	root := writeTree(t, map[string]string{
		"cmd/tool/main.go": `package main

import "os"

func load(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return nil
}

func drop(f *os.File) {
	f.Close()
}
`,
	})
	code, out := lint(t, root)
	if code != 1 || strings.Count(out, "Close error ignored") != 2 {
		t.Fatalf("want two Close findings, exit %d:\n%s", code, out)
	}
}

func TestHandledCloseAllowed(t *testing.T) {
	root := writeTree(t, map[string]string{
		"cmd/tool/main.go": `package main

import "os"

func save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.WriteString("x"); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

var _ = save
`,
	})
	if code, out := lint(t, root); code != 0 {
		t.Fatalf("handled Close must pass, exit %d:\n%s", code, out)
	}
}

func TestVoidCloseTypeExempt(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/serve/batcher.go": `package serve

type Batcher struct{}

func (b *Batcher) Close() {}
`,
		"cmd/tool/main.go": `package main

type batcherLike interface{ Close() }

func shutdown(batcher batcherLike) {
	batcher.Close()
}

var _ = shutdown
`,
	})
	if code, out := lint(t, root); code != 0 {
		t.Fatalf("void-Close type must be exempt, exit %d:\n%s", code, out)
	}
}

func TestTestFilesExempt(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/corpus/gen_test.go": `package corpus

import (
	"os"
	"time"
)

func stamp() int64 { return time.Now().Unix() }

func drop(f *os.File) { f.Close() }
`,
	})
	if code, out := lint(t, root); code != 0 {
		t.Fatalf("test files are exempt, exit %d:\n%s", code, out)
	}
}

func TestNakedPanicFlaggedInSupervisedPkg(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/ml/tree.go": `package ml

func grow(depth int) {
	if depth > 64 {
		panic("tree too deep")
	}
}
`,
	})
	code, out := lint(t, root)
	if code != 1 || !strings.Contains(out, "naked panic") {
		t.Fatalf("want naked-panic finding, exit %d:\n%s", code, out)
	}
}

func TestAllowPanicDirectiveExempts(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/ml/tree.go": `package ml

func grow(depth int) {
	if depth > 64 {
		// repolint:allow-panic recovered by the fold supervisor in cv.go
		panic("tree too deep")
	}
	if depth < 0 { // repolint:allow-panic impossible by construction
		panic("negative depth")
	}
}

var _ = grow
`,
	})
	if code, out := lint(t, root); code != 0 {
		t.Fatalf("annotated panic must pass, exit %d:\n%s", code, out)
	}
}

func TestPanicAllowedOutsideSupervisedPkgs(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/corpus/gen.go": `package corpus

func mustPositive(n int) {
	if n <= 0 {
		panic("n must be positive")
	}
}

var _ = mustPositive
`,
	})
	if code, out := lint(t, root); code != 0 {
		t.Fatalf("corpus is not a supervised package, exit %d:\n%s", code, out)
	}
}

func TestUncheckedRenameAndWriteFileFlagged(t *testing.T) {
	root := writeTree(t, map[string]string{
		"cmd/tool/main.go": `package main

import "os"

func publish(tmp, final string, data []byte) {
	os.WriteFile(tmp, data, 0o644)
	os.Rename(tmp, final)
}
`,
	})
	code, out := lint(t, root)
	if code != 1 || !strings.Contains(out, "os.WriteFile error ignored") || !strings.Contains(out, "os.Rename error ignored") {
		t.Fatalf("want two unchecked-file-op findings, exit %d:\n%s", code, out)
	}
}

func TestCheckedRenameAndWriteFileAllowed(t *testing.T) {
	root := writeTree(t, map[string]string{
		"cmd/tool/main.go": `package main

import "os"

func publish(tmp, final string, data []byte) error {
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	_ = os.Remove(tmp) // cleanup best-effort
	return os.Rename(tmp, final)
}

var _ = publish
`,
	})
	if code, out := lint(t, root); code != 0 {
		t.Fatalf("checked file ops must pass, exit %d:\n%s", code, out)
	}
}

func TestBareSleepFlaggedInServingPkg(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/fleet/probe.go": `package fleet

import "time"

func backoff() {
	time.Sleep(50 * time.Millisecond)
}
`,
	})
	code, out := lint(t, root)
	if code != 1 || !strings.Contains(out, "bare time.Sleep in a serving package") {
		t.Fatalf("want bare-sleep finding, exit %d:\n%s", code, out)
	}
}

func TestAllowSleepDirectiveExempts(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/serve/retry.go": `package serve

import "time"

func backoff() {
	// repolint:allow-sleep jittered retry loop, context checked by caller
	time.Sleep(50 * time.Millisecond)
	time.Sleep(time.Millisecond) // repolint:allow-sleep settle before reprobe
}

var _ = backoff
`,
	})
	if code, out := lint(t, root); code != 0 {
		t.Fatalf("annotated sleep must pass, exit %d:\n%s", code, out)
	}
}

func TestSleepAllowedOutsideServingPkgs(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/fault/inject.go": `package fault

import "time"

func stall(d time.Duration) { time.Sleep(d) }

var _ = stall
`,
	})
	if code, out := lint(t, root); code != 0 {
		t.Fatalf("fault is not a serving package, exit %d:\n%s", code, out)
	}
}

func TestSleepAllowedInServingTests(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/fleet/probe_test.go": `package fleet

import "time"

func settle() { time.Sleep(time.Millisecond) }
`,
	})
	if code, out := lint(t, root); code != 0 {
		t.Fatalf("test files are exempt from the sleep rule, exit %d:\n%s", code, out)
	}
}

func TestRepoIsClean(t *testing.T) {
	// The repository itself must satisfy its own invariants; this is
	// the standing form of the "run it over the repo" requirement.
	root := "../.."
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skip("repo root not found")
	}
	// Guard against a walk that silently visits nothing: the tree has
	// well over a hundred Go files.
	if files, err := goFiles(root); err != nil || len(files) < 100 {
		t.Fatalf("goFiles(%q) = %d files, err %v: the repository is not being walked", root, len(files), err)
	}
	if code, out := lint(t, root); code != 0 {
		t.Fatalf("repolint must exit clean on this repository, exit %d:\n%s", code, out)
	}
}

// TestRelativeParentRootLinted pins that a root spelled "../.." is
// walked: its base name starts with a dot, and the hidden-directory
// skip once swallowed the whole tree, so a seeded violation went
// unreported and the run exited 0.
func TestRelativeParentRootLinted(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/corpus/gen.go": `package corpus

import "time"

func Stamp() int64 { return time.Now().Unix() }
`,
		"a/b/keep.txt": "cwd for the relative root\n",
		".hidden/x.go": "package x\n\nfunc Broken( {\n",
	})
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join(root, "a", "b")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
	code, out := lint(t, "../..")
	if code != 1 || !strings.Contains(out, "time.Now") {
		t.Fatalf("seeded violation under -root ../.. not caught, exit %d:\n%s", code, out)
	}
}

func TestConstructorAssignedVoidCloseExempt(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/serve/batcher.go": `package serve

type Batcher struct{}

func NewBatcher() *Batcher { return &Batcher{} }

func (b *Batcher) Close() {}
`,
		"internal/fleet/router.go": `package fleet

type Router struct{}

func New() (*Router, error) { return &Router{}, nil }

func (r *Router) Close() {}
`,
		"cmd/tool/main.go": `package main

import (
	"gptattr/internal/fleet"
	"gptattr/internal/serve"
)

func run() error {
	hb := serve.NewBatcher()
	defer hb.Close()
	rt, err := fleet.New()
	if err != nil {
		return err
	}
	defer rt.Close()
	return nil
}

func main() { _ = run() }
`,
	})
	if code, out := lint(t, root); code != 0 {
		t.Fatalf("constructor-assigned void-Close values must be exempt, exit %d:\n%s", code, out)
	}
}

func TestConstructorAssignedErrorCloseFlagged(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/store/db.go": `package store

type DB struct{}

func Open() (*DB, error) { return &DB{}, nil }

func (d *DB) Close() error { return nil }
`,
		"cmd/tool/main.go": `package main

import "gptattr/internal/store"

func run() error {
	h, err := store.Open()
	if err != nil {
		return err
	}
	defer h.Close()
	return nil
}

func main() { _ = run() }
`,
	})
	code, out := lint(t, root)
	if code != 1 || strings.Count(out, "Close error ignored") != 1 {
		t.Fatalf("want one Close finding for an error-returning Close, exit %d:\n%s", code, out)
	}
}

func TestTestOnlyFuncFlagged(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/semstats/ref.go": `package semstats

func Analyze() int { return 1 }

func referenceAnalyze() int { return helper() }

func helper() int { return 2 }
`,
		"internal/semstats/ref_test.go": `package semstats

import "testing"

func TestRef(t *testing.T) {
	if referenceAnalyze() != Analyze()+1 {
		t.Fatal("mismatch")
	}
}
`,
	})
	code, out := lint(t, root)
	if code != 1 || !strings.Contains(out, "referenceAnalyze is referenced only by tests") {
		t.Fatalf("want a test-only finding for referenceAnalyze, exit %d:\n%s", code, out)
	}
	// helper is called from shipped code (even though that caller is
	// itself test-only): it is not the function to move first.
	if strings.Contains(out, "function helper") {
		t.Fatalf("helper has a non-test caller and must not be flagged:\n%s", out)
	}
}

func TestTestOnlyFuncRecursionDoesNotCount(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/ml/walk.go": `package ml

func depth(n int) int {
	if n == 0 {
		return 0
	}
	return 1 + depth(n-1)
}
`,
		"internal/ml/walk_test.go": `package ml

import "testing"

func TestDepth(t *testing.T) {
	if depth(3) != 3 {
		t.Fatal("depth")
	}
}
`,
	})
	code, out := lint(t, root)
	if code != 1 || !strings.Contains(out, "depth is referenced only by tests") {
		t.Fatalf("a self-call must not count as a shipped reference, exit %d:\n%s", code, out)
	}
}

func TestShippedFuncAllowed(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/ml/pick.go": `package ml

type picker struct{ n int }

func (p picker) pick() int { return clamp(p.n) }

func clamp(n int) int {
	if n < 0 {
		return 0
	}
	return n
}

func Pick(n int) int { return picker{n}.pick() }
`,
		"internal/ml/pick_test.go": `package ml

import "testing"

func TestClamp(t *testing.T) {
	if clamp(-1) != 0 || (picker{2}).pick() != 2 {
		t.Fatal("clamp")
	}
}
`,
		"cmd/tool/main.go": `package main

import "gptattr/internal/ml"

func main() { _ = ml.Pick(1) }
`,
	})
	if code, out := lint(t, root); code != 0 {
		t.Fatalf("functions called from shipped code must pass, exit %d:\n%s", code, out)
	}
}

// TestTestOnlyExported covers the exported half of the test-only rule:
// who counts as a caller of an exported declaration under internal/.
func TestTestOnlyExported(t *testing.T) {
	const lib = `package ml

import "sort"

// Span is the shipped entry point the fixtures share.
func Span(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)-1] - xs[0]
}
`
	for _, tc := range []struct {
		name  string
		files map[string]string
		want  string // finding substring; "" means the tree is clean
	}{
		{
			name: "own tests only",
			files: map[string]string{
				"internal/ml/ref.go": `package ml

func Median(xs []float64) float64 { return xs[len(xs)/2] }
`,
				"internal/ml/ref_test.go": `package ml

import "testing"

func TestMedian(t *testing.T) {
	if Median([]float64{1, 2, 3}) != 2 {
		t.Fatal("median")
	}
}
`,
			},
			want: "exported function Median is referenced only by tests",
		},
		{
			name: "another package's test",
			files: map[string]string{
				"internal/ml/ref.go": `package ml

func Median(xs []float64) float64 { return xs[len(xs)/2] }
`,
				"internal/attrib/ref_test.go": `package attrib

import (
	"testing"

	"gptattr/internal/ml"
)

func TestMedianOracle(t *testing.T) {
	if ml.Median([]float64{1, 2, 3}) != 2 {
		t.Fatal("median")
	}
}
`,
			},
		},
		{
			name: "sibling servebench module, aliased import",
			files: map[string]string{
				"internal/ml/span.go": lib,
				"servebench/main.go": `package main

import stats "gptattr/internal/ml"

func main() { _ = stats.Span([]float64{1, 2}) }
`,
			},
		},
		{
			name: "method kept by a same-named selector elsewhere",
			files: map[string]string{
				"internal/ml/span.go": lib + `
type Tree struct{ n int }

func (t *Tree) Depth() int { return t.n }

func (t *Tree) Leaves() int { return t.n + 1 }
`,
				"cmd/tool/main.go": `package main

import "gptattr/internal/ml"

type stack struct{ n int }

func (s *stack) Depth() int { return s.n }

func main() {
	s := &stack{}
	_, _ = s.Depth(), ml.Span(nil)
}
`,
			},
			want: "exported method Tree.Leaves is referenced by no shipped code or test",
		},
		{
			name: "method kept by an interface that names it",
			files: map[string]string{
				"internal/ml/span.go": lib + `
type Tree struct{ n int }

func (t *Tree) Depth() int { return t.n }
`,
				"cmd/tool/main.go": `package main

import "gptattr/internal/ml"

type deep interface{ Depth() int }

var _ deep = (*ml.Tree)(nil)

func main() { _ = ml.Span(nil) }
`,
			},
		},
		{
			name: "method recursion does not count",
			files: map[string]string{
				"internal/ml/span.go": lib + `
type Tree struct{ n int }

func (t *Tree) Walk(n int) int {
	if n == 0 {
		return t.n
	}
	return t.Walk(n - 1)
}
`,
				"cmd/tool/main.go": `package main

import "gptattr/internal/ml"

func main() { _ = ml.Span(nil) }
`,
			},
			want: "exported method Tree.Walk is referenced by no shipped code or test",
		},
		{
			name: "unreferenced exported const",
			files: map[string]string{
				"internal/ml/span.go": lib + `
// Version tags the layout.
const Version = 3
`,
				"cmd/tool/main.go": `package main

import "gptattr/internal/ml"

func main() { _ = ml.Span(nil) }
`,
			},
			want: "exported const Version is referenced by no shipped code or test",
		},
		{
			name: "directive exempts",
			files: map[string]string{
				"internal/ml/ref.go": `package ml

// Median is the next serving path.
// repolint:allow-testonly pinned by TestMedian until the server calls it
func Median(xs []float64) float64 { return xs[len(xs)/2] }
`,
				"internal/ml/ref_test.go": `package ml

import "testing"

func TestMedian(t *testing.T) {
	if Median([]float64{1, 2, 3}) != 2 {
		t.Fatal("median")
	}
}
`,
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out := lint(t, writeTree(t, tc.files))
			if tc.want == "" {
				if code != 0 {
					t.Fatalf("want a clean tree, exit %d:\n%s", code, out)
				}
				return
			}
			if code != 1 || !strings.Contains(out, tc.want) || !strings.Contains(out, "repolint: 1 finding(s)") {
				t.Fatalf("want exactly one finding %q, exit %d:\n%s", tc.want, code, out)
			}
		})
	}
}

func TestUnformattedFileFlagged(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/cpptok/scan.go": "package cpptok\n\nconst (\n\ta byte = iota\n\tbb // two\n)\n",
	})
	code, out := lint(t, root)
	if code != 1 || !strings.Contains(out, "not gofmt-formatted") {
		t.Fatalf("want a gofmt finding, exit %d:\n%s", code, out)
	}
}

func TestFormattedFileAllowed(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/cpptok/scan.go": "package cpptok\n\nconst (\n\ta  byte = iota\n\tbb      // two\n)\n\nvar _ = []byte{a, bb}\n",
	})
	if code, out := lint(t, root); code != 0 {
		t.Fatalf("gofmt-clean file must pass, exit %d:\n%s", code, out)
	}
}

func TestMapRangeAppendFlagged(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/stylometry/agg.go": `package stylometry

func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`,
	})
	code, out := lint(t, root)
	if code != 1 || !strings.Contains(out, "map iteration order feeds append") {
		t.Fatalf("want maprange append finding, exit %d:\n%s", code, out)
	}
}

func TestMapRangeSortedAppendAllowed(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/stylometry/agg.go": `package stylometry

import "sort"

func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

var _ = Keys
`,
	})
	if code, out := lint(t, root); code != 0 {
		t.Fatalf("append-then-sort is order-safe, exit %d:\n%s", code, out)
	}
}

func TestMapRangeIntoMapAllowed(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/ml/merge.go": `package ml

func Merge(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] += v
	}
}

var _ = Merge
`,
	})
	if code, out := lint(t, root); code != 0 {
		t.Fatalf("map-to-map range is commutative, exit %d:\n%s", code, out)
	}
}

func TestMapRangePrintFlagged(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/arena/report.go": `package arena

import (
	"fmt"
	"io"
)

func Dump(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}
`,
	})
	code, out := lint(t, root)
	if code != 1 || !strings.Contains(out, "map iteration order feeds fmt.Fprintf") {
		t.Fatalf("want maprange fmt finding, exit %d:\n%s", code, out)
	}
}

func TestMapRangeWriterFlagged(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/semstats/dump.go": `package semstats

import "strings"

func Join(m map[string]bool) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k)
	}
	return b.String()
}
`,
	})
	code, out := lint(t, root)
	if code != 1 || !strings.Contains(out, "map iteration order feeds .WriteString") {
		t.Fatalf("want maprange writer finding, exit %d:\n%s", code, out)
	}
}

func TestMapRangeDirectiveExempts(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/stylometry/agg.go": `package stylometry

func Sum(m map[string]int) []int {
	var out []int
	// repolint:allow-maprange the caller sums the slice, order invisible
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

var _ = Sum
`,
	})
	if code, out := lint(t, root); code != 0 {
		t.Fatalf("directive must exempt the range, exit %d:\n%s", code, out)
	}
}

func TestMapRangeOutsideDeterministicPkgAllowed(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/serve/dump.go": `package serve

func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

var _ = Keys
`,
	})
	if code, out := lint(t, root); code != 0 {
		t.Fatalf("rule only applies to deterministic pkgs, exit %d:\n%s", code, out)
	}
}

// mapFieldTree is a two-package tree shaped like the semantic feature
// pass: semstats declares a struct with a map-typed field, and
// stylometry's loop body ranges over it. repolint parses without
// type-checking, so the slices import may go unused.
func mapFieldTree(t *testing.T, loop string) string {
	t.Helper()
	return writeTree(t, map[string]string{
		"internal/semstats/stats.go": `package semstats

type FuncStats struct {
	Name      string
	Blocks    []int
	ExprGrams map[string]int
}
`,
		"internal/stylometry/semantic.go": `package stylometry

import (
	"slices"

	"gptattr/internal/semstats"
)

type FeatureVec struct{ n int }

func (fv *FeatureVec) AddShape(text string, v float64) bool { fv.n++; return true }

var grams []string

func Fold(fv *FeatureVec, funcs []*semstats.FuncStats) {
	for _, st := range funcs {
` + loop + `
	}
}

var _ = Fold
`,
	})
}

func TestMapRangeFieldIntoAccumulatorFlagged(t *testing.T) {
	root := mapFieldTree(t, `		for gram, n := range st.ExprGrams {
			fv.AddShape(gram, float64(n))
		}`)
	code, out := lint(t, root)
	if code != 1 || !strings.Contains(out, "map iteration order feeds .AddShape") {
		t.Fatalf("want maprange accumulator finding on a map field, exit %d:\n%s", code, out)
	}
}

func TestMapRangeFieldSortedAllowed(t *testing.T) {
	root := mapFieldTree(t, `		grams = grams[:0]
		for gram := range st.ExprGrams {
			grams = append(grams, gram)
		}
		slices.Sort(grams)
		for _, gram := range grams {
			fv.AddShape(gram, float64(st.ExprGrams[gram]))
		}
		for _, b := range st.Blocks {
			fv.AddShape("b", float64(b))
		}`)
	if code, out := lint(t, root); code != 0 {
		t.Fatalf("sorted keys and slice fields are order-safe, exit %d:\n%s", code, out)
	}
}

func TestFeatMapConstructionFlagged(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/stylometry/pass.go": `package stylometry

type Features map[string]float64

func lexicalPass() Features {
	f := make(Features)
	f["LineLenAvg"] = 1
	return f
}
`,
	})
	code, out := lint(t, root)
	if code != 1 || !strings.Contains(out, "feature map") {
		t.Fatalf("want feature-map finding, exit %d:\n%s", code, out)
	}
}

func TestFeatMapRawMapAndLiteralFlagged(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/stylometry/pass.go": `package stylometry

func rawPass() map[string]float64 {
	f := map[string]float64{"a": 1}
	g := make(map[string]float64)
	g["b"] = 2
	for k, v := range g {
		f[k] = v
	}
	return f
}
`,
	})
	code, out := lint(t, root)
	if code != 1 || strings.Count(out, "extraction package") != 2 {
		t.Fatalf("want 2 feature-map findings, exit %d:\n%s", code, out)
	}
}

func TestFeatMapDirectiveExempts(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/stylometry/boundary.go": `package stylometry

type Features map[string]float64

func Materialize() Features {
	out := make(Features) // repolint:allow-featmap boundary materializer
	return out
}

var _ = Materialize
`,
	})
	if code, out := lint(t, root); code != 0 {
		t.Fatalf("annotated boundary converter must pass, exit %d:\n%s", code, out)
	}
}

func TestFeatMapAllowedOutsideStylometry(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/attrib/table.go": `package attrib

func Table() map[string]float64 { return make(map[string]float64) }

var _ = Table
`,
	})
	if code, out := lint(t, root); code != 0 {
		t.Fatalf("feature maps are fine outside stylometry, exit %d:\n%s", code, out)
	}
}

func TestFeatMapAllowedInStylometryTests(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/stylometry/pass_test.go": `package stylometry

func fixture() map[string]float64 { return map[string]float64{"a": 1} }
`,
	})
	if code, out := lint(t, root); code != 0 {
		t.Fatalf("test files are exempt, exit %d:\n%s", code, out)
	}
}
