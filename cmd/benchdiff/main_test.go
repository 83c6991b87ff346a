package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const testBaseline = `{
  "benchmarks": {
    "BenchmarkFitForest": {
      "seed_ns_per_op": 123300000, "target_ns_per_op": 41000000, "target_allocs_per_op": 200
    },
    "BenchmarkPredictAll": {
      "seed_ns_per_op": 4300000, "target_ns_per_op": 4300000, "target_allocs_per_op": 10
    }
  }
}`

func writeFixture(t *testing.T, benchOut string) (string, string) {
	t.Helper()
	return writeBaseline(t, testBaseline, benchOut)
}

// writeBaseline writes a baseline file and captured bench output to a
// temp dir and returns their paths.
func writeBaseline(t *testing.T, baselineJSON, benchOut string) (string, string) {
	t.Helper()
	dir := t.TempDir()
	bp := filepath.Join(dir, "base.json")
	ip := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(bp, []byte(baselineJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ip, []byte(benchOut), 0o644); err != nil {
		t.Fatal(err)
	}
	return bp, ip
}

func TestWithinTargetPasses(t *testing.T) {
	bp, ip := writeFixture(t, `
goos: linux
BenchmarkFitForest    	      30	  41000000 ns/op	  930000 B/op	     131 allocs/op
BenchmarkFitForest    	      30	  39000000 ns/op	  930000 B/op	     131 allocs/op
BenchmarkPredictAll-4 	     400	   3300000 ns/op	   66000 B/op	       2 allocs/op
PASS
`)
	var out bytes.Buffer
	if err := run([]string{"-baseline", bp, "-input", ip}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "all benchmarks within target") {
		t.Errorf("missing pass banner:\n%s", out.String())
	}
}

// TestBestOfCountWins pins the noise policy: a slow run is forgiven
// when a sibling run is within limits.
func TestBestOfCountWins(t *testing.T) {
	bp, ip := writeFixture(t, `
BenchmarkFitForest 	 30	  99000000 ns/op	 131 allocs/op
BenchmarkFitForest 	 30	  40000000 ns/op	 131 allocs/op
BenchmarkPredictAll 	400	   3300000 ns/op	   2 allocs/op
`)
	if err := run([]string{"-baseline", bp, "-input", ip}, &bytes.Buffer{}); err != nil {
		t.Fatalf("best-of-count run failed: %v", err)
	}
}

func TestWallClockRegressionFails(t *testing.T) {
	bp, ip := writeFixture(t, `
BenchmarkFitForest 	 10	  60000000 ns/op	 131 allocs/op
BenchmarkPredictAll 	400	   3300000 ns/op	   2 allocs/op
`)
	err := run([]string{"-baseline", bp, "-input", ip}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "exceeds target") {
		t.Fatalf("err = %v, want wall-clock regression", err)
	}
}

func TestAllocRegressionFails(t *testing.T) {
	bp, ip := writeFixture(t, `
BenchmarkFitForest 	 30	  40000000 ns/op	 500 allocs/op
BenchmarkPredictAll 	400	   3300000 ns/op	   2 allocs/op
`)
	err := run([]string{"-baseline", bp, "-input", ip}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "allocs/op exceeds target") {
		t.Fatalf("err = %v, want alloc regression", err)
	}
}

func TestMissingBenchmarkFails(t *testing.T) {
	bp, ip := writeFixture(t, `
BenchmarkFitForest 	 30	  40000000 ns/op	 131 allocs/op
`)
	err := run([]string{"-baseline", bp, "-input", ip}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("err = %v, want missing-benchmark failure", err)
	}
}

// TestZeroAllocTargetGates pins that a recorded target of 0 allocs/op
// is a real gate: one allocation fails it.
func TestZeroAllocTargetGates(t *testing.T) {
	bp, ip := writeBaseline(t, `{"benchmarks": {
  "BenchmarkVectorInto": {"target_ns_per_op": 1000, "target_allocs_per_op": 0}
}}`, `
BenchmarkVectorInto 	1000	  900 ns/op	  8 B/op	  1 allocs/op
`)
	err := run([]string{"-baseline", bp, "-input", ip}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "1 allocs/op exceeds target 0") {
		t.Fatalf("err = %v, want zero-target alloc failure", err)
	}

	bp, ip = writeBaseline(t, `{"benchmarks": {
  "BenchmarkVectorInto": {"target_ns_per_op": 1000, "target_allocs_per_op": 0}
}}`, `
BenchmarkVectorInto 	1000	  900 ns/op	  0 B/op	  0 allocs/op
`)
	if err := run([]string{"-baseline", bp, "-input", ip}, &bytes.Buffer{}); err != nil {
		t.Fatalf("zero allocs against a zero target failed: %v", err)
	}
}

// TestMissingAllocTargetNeverGates pins the other half: a baseline
// entry without target_allocs_per_op gates wall-clock only.
func TestMissingAllocTargetNeverGates(t *testing.T) {
	bp, ip := writeBaseline(t, `{"benchmarks": {
  "BenchmarkRouterForward": {"target_ns_per_op": 1000}
}}`, `
BenchmarkRouterForward 	1000	  900 ns/op	  90000 B/op	  700 allocs/op
`)
	if err := run([]string{"-baseline", bp, "-input", ip}, &bytes.Buffer{}); err != nil {
		t.Fatalf("alloc count gated without a target: %v", err)
	}
}

// TestMachineLine pins the one line naming the box: it comes first,
// takes the CPU model from go test's "cpu:" header when there is one,
// and carries NumCPU, GOMAXPROCS and the Go version.
func TestMachineLine(t *testing.T) {
	bench := `
goos: linux
cpu: Example CPU @ 2.10GHz
BenchmarkFitForest    	      30	  41000000 ns/op	  930000 B/op	     131 allocs/op
BenchmarkPredictAll-4 	     400	   3300000 ns/op	   66000 B/op	       2 allocs/op
PASS
`
	for _, tc := range []struct{ name, out, cpu string }{
		{"cpu header", bench, `cpu="Example CPU @ 2.10GHz"`},
		{"no cpu header", strings.Replace(bench, "cpu: Example CPU @ 2.10GHz\n", "", 1), "cpu="},
	} {
		bp, ip := writeFixture(t, tc.out)
		var out bytes.Buffer
		if err := run([]string{"-baseline", bp, "-input", ip}, &out); err != nil {
			t.Fatalf("%s: run: %v\n%s", tc.name, err, out.String())
		}
		first, _, _ := strings.Cut(out.String(), "\n")
		want := fmt.Sprintf(" numcpu=%d gomaxprocs=%d go=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
		if !strings.HasPrefix(first, "machine: "+tc.cpu) || !strings.HasSuffix(first, want) {
			t.Errorf("%s: first line %q, want machine: %s...%s", tc.name, first, tc.cpu, want)
		}
		if n := strings.Count(out.String(), "machine:"); n != 1 {
			t.Errorf("%s: %d machine lines, want 1", tc.name, n)
		}
	}
}
