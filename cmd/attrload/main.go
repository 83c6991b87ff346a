// Command attrload is a closed-loop load generator for attrserve: N
// concurrent clients each fire the next request as soon as the
// previous one answers, against POST /v1/attribute and/or /v1/detect,
// using real C++ sources from a corpus directory as request bodies.
// It reports throughput, a status-code breakdown, and client-observed
// p50/p95/p99 latency through the same histogram implementation the
// server exports at /metrics, so the two views are directly
// comparable.
//
//	attrload -url http://127.0.0.1:8080 -corpus datasets/gcj2017 \
//	    -clients 64 -duration 10s
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gptattr/internal/fleet"
	"gptattr/internal/serve"
	"gptattr/internal/serve/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "attrload:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs_ := flag.NewFlagSet("attrload", flag.ContinueOnError)
	url := fs_.String("url", "", "base URL of a running attrserve (e.g. http://127.0.0.1:8080)")
	corpusDir := fs_.String("corpus", "", "directory of .cc/.cpp files used as request bodies")
	endpoint := fs_.String("endpoint", "attribute", "attribute, detect, or mixed")
	clients := fs_.Int("clients", 64, "concurrent closed-loop clients")
	duration := fs_.Duration("duration", 10*time.Second, "how long to drive load")
	requests := fs_.Int("requests", 0, "stop after this many requests (0 = duration only)")
	timeout := fs_.Duration("timeout", 10*time.Second, "per-request client timeout")
	budget := fs_.Duration("budget", 0, "per-request time budget sent as X-Request-Budget-Ms; the server clamps its deadline to it (0 = none)")
	serverMetrics := fs_.Bool("server-metrics", true, "fetch and print the server's /metrics after the run")
	fleetMode := fs_.Bool("fleet", false, "target is an attrrouter: also fetch /fleet/status and report the fleet-wide view")
	if err := fs_.Parse(args); err != nil {
		return err
	}
	if *url == "" || *corpusDir == "" {
		return fmt.Errorf("-url and -corpus are required")
	}
	switch *endpoint {
	case "attribute", "detect", "mixed":
	default:
		return fmt.Errorf("-endpoint %q, want attribute, detect, or mixed", *endpoint)
	}
	sources, err := loadSources(*corpusDir)
	if err != nil {
		return err
	}

	cfg := loadConfig{
		BaseURL:  strings.TrimRight(*url, "/"),
		Endpoint: *endpoint,
		Sources:  sources,
		Clients:  *clients,
		Duration: *duration,
		Requests: *requests,
		Timeout:  *timeout,
		Budget:   *budget,
	}
	fmt.Fprintf(stdout, "attrload: %d clients, %s, endpoint=%s, %d sources\n",
		cfg.Clients, cfg.Duration, cfg.Endpoint, len(sources))
	rep := loadTest(cfg)
	fmt.Fprint(stdout, rep.String())

	if *fleetMode {
		if err := fleetReport(stdout, cfg.BaseURL, rep); err != nil {
			fmt.Fprintf(stdout, "\nfleet status unavailable: %v\n", err)
		}
	}
	if *serverMetrics {
		resp, err := http.Get(cfg.BaseURL + "/metrics")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			fmt.Fprintf(stdout, "\nserver /metrics after run:\n%s", body)
		} else {
			fmt.Fprintf(stdout, "\nserver /metrics unavailable: %v\n", err)
		}
	}
	if rep.OK == 0 {
		return fmt.Errorf("no request succeeded (of %d)", rep.Total)
	}
	return nil
}

// loadConfig parameterizes one closed-loop run.
type loadConfig struct {
	BaseURL  string
	Endpoint string // attribute, detect, or mixed
	Sources  []string
	Clients  int
	Duration time.Duration
	Requests int // 0 = unbounded (duration decides)
	Timeout  time.Duration
	Budget   time.Duration // 0 = no X-Request-Budget-Ms header
}

// report aggregates what the clients observed.
type report struct {
	Total    uint64
	OK       uint64
	ByStatus map[int]uint64
	// ByDegrade counts 200s per X-Degrade-Level (0 = full fidelity) —
	// the client-side view of how browned out the server is.
	ByDegrade map[int]uint64
	NetErrs   uint64
	Elapsed   time.Duration
	Latency   metrics.Snapshot
}

func (r *report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests:   %d total, %d ok, %d network errors in %v\n",
		r.Total, r.OK, r.NetErrs, r.Elapsed.Round(time.Millisecond))
	codes := make([]int, 0, len(r.ByStatus))
	for c := range r.ByStatus {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		fmt.Fprintf(&b, "status %d: %d\n", c, r.ByStatus[c])
	}
	if len(r.ByDegrade) > 0 {
		levels := make([]int, 0, len(r.ByDegrade))
		for l := range r.ByDegrade {
			levels = append(levels, l)
		}
		sort.Ints(levels)
		for _, l := range levels {
			fmt.Fprintf(&b, "degrade %d: %d\n", l, r.ByDegrade[l])
		}
	}
	if r.Elapsed > 0 {
		fmt.Fprintf(&b, "throughput: %.1f req/s (%.1f ok/s)\n",
			float64(r.Total)/r.Elapsed.Seconds(), float64(r.OK)/r.Elapsed.Seconds())
	}
	s := r.Latency
	fmt.Fprintf(&b, "latency:    p50 %v  p95 %v  p99 %v  (min %v  mean %v  max %v)\n",
		s.P50.Round(time.Microsecond), s.P95.Round(time.Microsecond), s.P99.Round(time.Microsecond),
		s.Min.Round(time.Microsecond), s.Mean.Round(time.Microsecond), s.Max.Round(time.Microsecond))
	return b.String()
}

// loadTest runs the closed loop and aggregates client observations.
func loadTest(cfg loadConfig) *report {
	if cfg.Clients < 1 {
		cfg.Clients = 1
	}
	var (
		hist      metrics.Histogram
		total     metrics.Counter
		ok        metrics.Counter
		netErrs   metrics.Counter
		mu        sync.Mutex
		byCode    = map[int]uint64{}
		byDegrade = map[int]uint64{}
	)
	client := &http.Client{Timeout: cfg.Timeout}
	// Reuse encoded bodies: the closed loop should measure the server,
	// not client-side JSON encoding.
	bodies := make([][]byte, len(cfg.Sources))
	for i, src := range cfg.Sources {
		bodies[i], _ = json.Marshal(serve.AttributeRequest{Source: src})
	}
	// A global sequence both caps total requests and spreads sources.
	var seq atomic.Uint64

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				n := seq.Add(1) - 1
				if cfg.Requests > 0 && n >= uint64(cfg.Requests) {
					return
				}
				path := "/v1/" + cfg.Endpoint
				if cfg.Endpoint == "mixed" {
					if n%2 == 0 {
						path = "/v1/attribute"
					} else {
						path = "/v1/detect"
					}
				}
				body := bodies[int(n)%len(bodies)]
				req, rerr := http.NewRequest(http.MethodPost, cfg.BaseURL+path, bytes.NewReader(body))
				if rerr != nil {
					total.Inc()
					netErrs.Inc()
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				if cfg.Budget > 0 {
					req.Header.Set(serve.BudgetHeader,
						strconv.FormatInt(int64(cfg.Budget/time.Millisecond), 10))
				}
				start := time.Now()
				resp, err := client.Do(req)
				lat := time.Since(start)
				total.Inc()
				if err != nil {
					netErrs.Inc()
					continue
				}
				io.Copy(io.Discard, resp.Body)
				degrade := -1
				if resp.StatusCode == http.StatusOK {
					if lvl, perr := strconv.Atoi(resp.Header.Get(serve.DegradeHeader)); perr == nil {
						degrade = lvl
					}
				}
				_ = resp.Body.Close()
				hist.Observe(lat)
				mu.Lock()
				byCode[resp.StatusCode]++
				if degrade >= 0 {
					byDegrade[degrade]++
				}
				mu.Unlock()
				if resp.StatusCode == http.StatusOK {
					ok.Inc()
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	return &report{
		Total:     total.Value(),
		OK:        ok.Value(),
		ByStatus:  byCode,
		ByDegrade: byDegrade,
		NetErrs:   netErrs.Value(),
		Elapsed:   elapsed,
		Latency:   hist.Snap(),
	}
}

// fleetReport fetches the router's /fleet/status and prints the
// fleet-wide view: the client-observed latency quantiles (which span
// every replica, since each request crossed the router) plus the
// per-replica roster and the router's hedge/failover counters.
func fleetReport(stdout io.Writer, baseURL string, rep *report) error {
	resp, err := http.Get(baseURL + "/fleet/status")
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }() // response fully read or abandoned either way
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/fleet/status answered %d", resp.StatusCode)
	}
	var st fleet.FleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}
	s := rep.Latency
	fmt.Fprintf(stdout, "\nfleet:      generation %d, %d/%d replicas alive\n",
		st.Generation, st.AliveReplicas, len(st.Replicas))
	fmt.Fprintf(stdout, "fleet-wide: p50 %v  p95 %v  p99 %v (client-observed, all replicas)\n",
		s.P50.Round(time.Microsecond), s.P95.Round(time.Microsecond), s.P99.Round(time.Microsecond))
	fmt.Fprintf(stdout, "router:     %d forwards, %d failovers, %d hedges (%d won), %d restores, %d gen mismatches, %d breaker opens (%d rejects)\n",
		st.Forwards, st.Failovers, st.Hedges, st.HedgeWins, st.Restores, st.GenMismatches,
		st.BreakerOpens, st.BreakerRejects)
	for _, r := range st.Replicas {
		state := "alive"
		if !r.Alive {
			state = "dead"
		}
		fmt.Fprintf(stdout, "replica %-8s %-5s gen %-3d inflight %-3d fails %d breaker %-9s %s\n",
			r.Name, state, r.Generation, r.Inflight, r.ConsecutiveFailures, r.Breaker, r.URL)
	}
	if st.GenMismatches > 0 {
		return fmt.Errorf("%d responses crossed a generation flip", st.GenMismatches)
	}
	return nil
}

// loadSources reads every .cc/.cpp file under dir, recursively.
func loadSources(dir string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".cc") || strings.HasSuffix(path, ".cpp")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out = append(out, string(data))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no .cc/.cpp files under %s", dir)
	}
	return out, nil
}
