// Command benchdiff guards the ml training-engine benchmarks against
// performance regressions. It runs `go test -bench` on a package (or
// parses pre-captured output via -input), compares every benchmark
// present in the baseline file against its recorded targets, and exits
// non-zero when wall-clock regresses by more than the tolerance or
// allocations exceed the target.
//
//	benchdiff                          # bench ./internal/ml vs BENCH_ml.json
//	benchdiff -input bench.txt         # compare captured output instead
//	go test -bench . -benchmem ./internal/ml | benchdiff -input -
//
// The container the baselines were recorded on is noisy (±10%);
// benchdiff therefore takes the BEST of -count runs per benchmark and
// allows -tolerance (default 15%) over the target before failing.
// Allocation counts are deterministic and get no wall-clock slack.
// Wall-clock targets only mean something against the box that ran the
// benchmarks, so the first output line names it: CPU model, NumCPU,
// GOMAXPROCS and Go version.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// baseline mirrors BENCH_ml.json.
type baseline struct {
	Comment    string                   `json:"comment"`
	Benchmarks map[string]baselineEntry `json:"benchmarks"`
}

type baselineEntry struct {
	SeedNsPerOp     float64 `json:"seed_ns_per_op"`
	SeedBytesPerOp  float64 `json:"seed_bytes_per_op"`
	SeedAllocsPerOp float64 `json:"seed_allocs_per_op"`
	TargetNsPerOp   float64 `json:"target_ns_per_op"`
	// TargetAllocs is nil when the baseline records no alloc target;
	// a present zero is a target like any other.
	TargetAllocs *float64 `json:"target_allocs_per_op"`
}

// measurement is one parsed benchmark result line.
type measurement struct {
	nsPerOp     float64
	allocsPerOp float64
	hasAllocs   bool
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	baselinePath := fs.String("baseline", "BENCH_ml.json", "baseline JSON with per-benchmark targets")
	pkg := fs.String("pkg", "./internal/ml", "package to benchmark")
	count := fs.Int("count", 5, "benchmark repetitions; the best run counts")
	benchtime := fs.String("benchtime", "1s", "go test -benchtime value")
	tolerance := fs.Float64("tolerance", 0.15, "allowed wall-clock regression over target (0.15 = 15%)")
	input := fs.String("input", "", "parse this pre-captured `go test -bench` output instead of running go test (- for stdin)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		return err
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("%s: %w", *baselinePath, err)
	}
	if len(base.Benchmarks) == 0 {
		return fmt.Errorf("%s: no benchmarks in baseline", *baselinePath)
	}

	var benchOut []byte
	switch {
	case *input == "-":
		benchOut, err = io.ReadAll(os.Stdin)
		if err != nil {
			return err
		}
	case *input != "":
		benchOut, err = os.ReadFile(*input)
		if err != nil {
			return err
		}
	default:
		names := make([]string, 0, len(base.Benchmarks))
		for name := range base.Benchmarks {
			names = append(names, name+"$")
		}
		cmd := exec.Command("go", "test", "-run", "^$",
			"-bench", strings.Join(names, "|"),
			"-benchmem", "-benchtime", *benchtime,
			"-count", strconv.Itoa(*count), *pkg)
		cmd.Stderr = os.Stderr
		benchOut, err = cmd.Output()
		if err != nil {
			return fmt.Errorf("go test -bench: %w", err)
		}
	}

	fmt.Fprintln(stdout, machineLine(benchOut))
	best := parseBench(benchOut)
	var failures []string
	for name, b := range base.Benchmarks {
		m, ok := best[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: not found in benchmark output", name))
			continue
		}
		limit := b.TargetNsPerOp * (1 + *tolerance)
		status := "ok"
		if m.nsPerOp > limit {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op exceeds target %.0f ns/op +%.0f%% (limit %.0f)",
				name, m.nsPerOp, b.TargetNsPerOp, *tolerance*100, limit))
		}
		allocStatus := ""
		if m.hasAllocs && b.TargetAllocs != nil {
			target := *b.TargetAllocs
			allocStatus = fmt.Sprintf("  allocs %.0f (target %.0f)", m.allocsPerOp, target)
			if m.allocsPerOp > target {
				status = "FAIL"
				failures = append(failures, fmt.Sprintf("%s: %.0f allocs/op exceeds target %.0f",
					name, m.allocsPerOp, target))
			}
		}
		fmt.Fprintf(stdout, "%-22s %12.0f ns/op (target %.0f, seed %.0f, %.2fx vs seed)%s  [%s]\n",
			name, m.nsPerOp, b.TargetNsPerOp, b.SeedNsPerOp, safeRatio(b.SeedNsPerOp, m.nsPerOp), allocStatus, status)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d regression(s):\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	fmt.Fprintln(stdout, "benchdiff: all benchmarks within target")
	return nil
}

// machineLine describes the box in one line. The CPU model comes from
// go test's "cpu:" header when the benchmark output has one, else from
// /proc/cpuinfo; the counts and Go version are this process's.
func machineLine(benchOut []byte) string {
	return fmt.Sprintf("machine: cpu=%q numcpu=%d gomaxprocs=%d go=%s",
		cpuModel(benchOut), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

func cpuModel(benchOut []byte) string {
	for _, line := range strings.Split(string(benchOut), "\n") {
		if v, ok := strings.CutPrefix(line, "cpu:"); ok {
			return strings.TrimSpace(v)
		}
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(info), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func safeRatio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// parseBench extracts the best (minimum ns/op) measurement per
// benchmark name from `go test -bench` output. The -N cpu suffix is
// stripped so names match the baseline keys.
func parseBench(out []byte) map[string]measurement {
	best := make(map[string]measurement)
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var m measurement
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				m.nsPerOp = val
				seen = true
			case "allocs/op":
				m.allocsPerOp = val
				m.hasAllocs = true
			}
		}
		if !seen {
			continue
		}
		prev, ok := best[name]
		if !ok || m.nsPerOp < prev.nsPerOp {
			best[name] = m
		}
	}
	return best
}
