// Command servebench is the end-to-end serving benchmark. It derives
// every input from a seed, starts attrserve (and, for the routed
// workload, attrrouter over two attrserve replicas) as child processes,
// drives them with two closed-loop connections, checks every answer
// against the same model files scored in this process, and prints one
// JSON result as its last line of output.
//
// Workloads:
//
//	cold     every request a distinct never-seen source, one replica
//	routed   a 256-source cached working set through attrrouter to two
//	         replicas, with a coordinated reload every 2,000 requests
//	         alternating between two model sets
//	hostile  cold traffic with one deeply nested source per 100
//	         requests, every request under a 250 ms budget
//
// With -trace 1 it runs the workload twice, untraced and with client
// spans, then replays the same inputs in-process through each layer's
// public functions with spans around every call, writes the spans to
// a JSON-lines file, prints self time per layer, and reports per-layer
// metrics instead of end-to-end ones.
//
// Run it from the repository root through the wrapper, which builds
// the serving binaries from the same checkout first:
//
//	bash servebench/run.sh --workload cold --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run())
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run() int {
	workload := flag.String("workload", "", "cold, routed or hostile")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per pass")
	trace := flag.Int("trace", 0, "1 = per-layer traced run")
	bin := flag.String("bin", ".bench_build/bin", "directory holding attrserve and attrrouter")
	work := flag.String("work", ".bench_build/servebench", "directory for fixtures, logs, spans and results")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}

	runDir := filepath.Join(*work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	sup := newSupervisor(*bin, runDir)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		sig := <-sigs
		err := sup.stopAll()
		fmt.Fprintf(os.Stderr, "servebench: %v, children stopped (%v)\n", sig, err)
		os.Exit(1)
	}()

	res, err := measure(sup, *workload, *seed, *seconds, *trace == 1, *work, runDir)
	if serr := sup.stopAll(); serr != nil && err == nil {
		err = serr
	}
	if left := sup.leftovers(); len(left) > 0 {
		for _, pid := range left {
			_ = syscall.Kill(pid, syscall.SIGKILL)
		}
		if err == nil {
			err = fmt.Errorf("child processes outlived their stack: %v", left)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "servebench: wrong answers (see above)")
		return 1
	}
	_ = os.RemoveAll(runDir) // logs are kept only when a run fails
	return 0
}

// measure runs one workload pass (two when tracing) and returns the
// result line.
func measure(sup *supervisor, workload string, seed int64, seconds int, tracing bool, work, runDir string) (*result, error) {
	fx, err := loadFixtures(filepath.Join(work, "fixtures"), seed, defaultFixtures(seconds))
	if err != nil {
		return nil, err
	}
	p, err := buildPlan(workload, fx, seconds)
	if err != nil {
		return nil, err
	}
	id := identify()
	idLine, _ := json.Marshal(id)
	fmt.Printf("servebench: workload=%s seed=%d seconds=%d trace=%v\n", workload, seed, seconds, tracing)
	fmt.Printf("machine: %s\n", idLine)

	b := &bench{sup: sup, fx: fx, plan: p, seconds: seconds, liveDir: filepath.Join(runDir, "models")}
	res := &result{Correct: true}
	pass := func(spans *tracer) (*runResult, e2e, error) {
		r, err := b.run(spans)
		if err != nil {
			return nil, e2e{}, err
		}
		chk, err := newChecker(fx, r.reloads, p.routed)
		if err != nil {
			return nil, e2e{}, err
		}
		v := chk.check(p.measured, r.outs)
		for _, rl := range r.reloads {
			if rl.err != nil {
				res.Correct = false
				fmt.Fprintf(os.Stderr, "servebench: reload failed: %v\n", rl.err)
			}
		}
		if v.wrong > 0 {
			res.Correct = false
			for _, ex := range v.examples {
				fmt.Fprintf(os.Stderr, "servebench: wrong answer: %s\n", ex)
			}
		}
		if r.exhausted {
			fmt.Fprintf(os.Stderr, "servebench: the %d-request sequence ran out before %ds passed\n", len(p.measured), seconds)
		}
		res.Attempted += len(r.outs)
		res.Failed += len(r.outs) - v.ok
		s := summarize(r, v)
		printPass(s, r, v, tracing && spans == nil)
		return r, s, nil
	}

	_, u, err := pass(nil)
	if err != nil {
		return nil, err
	}
	if !tracing {
		res.Metrics = asMetrics(endToEnd, u.values)
		return res, writeResult(work, workload, seed, false, id, res)
	}
	if err := sup.stopAll(); err != nil {
		return nil, err
	}
	spans := newTracer()
	traced, tr, err := pass(spans)
	if err != nil {
		return nil, err
	}
	in := layerInputs{
		untracedP50Ms: u.values["p50_ms"], tracedP50Ms: tr.values["p50_ms"],
		untracedCPUUs: u.values["cpu_us_per_req"], tracedCPUUs: tr.values["cpu_us_per_req"],
	}
	if in.batchSize, err = batchSize(traced.stk); err != nil {
		return nil, err
	}
	if err := b.replay(spans, traced, &in); err != nil {
		return nil, err
	}
	vals := layerMetrics(spans, in)
	spanFile := filepath.Join(work, "traces", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	if err := os.MkdirAll(filepath.Dir(spanFile), 0o755); err != nil {
		return nil, err
	}
	if err := spans.write(spanFile); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %s\n", spanFile)
	spans.selfTimes(os.Stdout)
	for _, m := range perLayer {
		fmt.Printf("%-30s %14.3f %s\n", m.name, vals[m.name], m.unit)
	}
	res.Metrics = asMetrics(perLayer, vals)
	return res, writeResult(work, workload, seed, true, id, res)
}

// printPass prints one pass's end-to-end metrics, by name with units and
// sample counts.
func printPass(s e2e, r *runResult, v verdict, untracedOfTwo bool) {
	label := "end-to-end"
	if untracedOfTwo {
		label = "end-to-end (untraced pass)"
	}
	fmt.Printf("%s: %d requests in %.3fs, %d ok, %d at full fidelity, %d wrong, %d reloads\n",
		label, s.samples, r.elapsed.Seconds(), v.ok, v.full, v.wrong, len(r.reloads))
	fmt.Printf("  serving CPU by process:")
	for i, c := range r.stk.serving {
		fmt.Printf(" %s=%.2fs", c.name, r.cpuByProc[i])
	}
	fmt.Println()
	for _, w := range r.windows() {
		fmt.Printf("  window %6.2f-%6.2fs: %5d answers %8.1f rps %8.1f us/req p50 %.3f p90 %.3f p99 %.3f ms (n=%d)\n",
			w.from.Seconds(), w.to.Seconds(), w.answered, w.rps, w.cpuUsPerReq, w.p50Ms, w.p90Ms, w.p99Ms, w.samples)
	}
	for _, m := range report {
		note := ""
		switch m.name {
		case "setup_s":
			note = fmt.Sprintf(" (median of %d set-ups)", len(r.setup))
		case "rps", "cpu_us_per_req":
			note = " (quiet quartile of windows)"
		case "p50_ms", "p90_ms", "p99_ms":
			note = fmt.Sprintf(" (quiet quartile of windows; n=%d in all)", s.samples)
		}
		fmt.Printf("  %-16s %12.4f %s%s\n", m.name, s.values[m.name], m.unit, note)
	}
}

// machine names the container a result was measured on.
type machine struct {
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
}

func identify() machine {
	m := machine{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(raw))
	}
	return m
}

// writeResult keeps the result with the machine it was measured on.
func writeResult(work, workload string, seed int64, tracing bool, id machine, res *result) error {
	dir := filepath.Join(work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Workload string  `json:"workload"`
		Seed     int64   `json:"seed"`
		Trace    bool    `json:"trace"`
		Machine  machine `json:"machine"`
		*result
	}{workload, seed, tracing, id, res}, "", "  ")
	if err != nil {
		return err
	}
	t := 0
	if tracing {
		t = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, t)), data, 0o644)
}
