package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gptattr/internal/serve"
)

// Workload shape. Every constant here is part of the benchmark's
// definition: changing one changes what the numbers mean.
//
// A coordinated reload delays about six routed requests. Reloading every
// 500 requests put those delays at 1.2% of the traffic, right where p99
// falls, and routed p99 spread 28% across seeds; at every 2,000 they are
// 0.3% and p99 reads the router's steady tail (5% spread).
const (
	clients           = 2    // closed-loop connections, one request in flight each
	warmupRequests    = 200  // distinct sources whose answers end set-up (cold, hostile)
	fillRequests      = 4096 // distinct sources that fill featcache (default size) before measuring
	fillClients       = 8    // connections used to send the fill quickly
	routedWorkingSet  = 256  // routed sources; far below featcache's 4,096 entries
	routedReloadEvery = 2000 // measured requests between coordinated reloads
	hostileEvery      = 100  // one hostile source per this many requests
	hostileBudgetMs   = 250  // X-Request-Budget-Ms on every hostile-workload request; 50 failed a request in 60,000
	setupRepeats      = 5    // fresh stacks per run; setup_s is their median
)

// request is one inference call of a workload's fixed sequence.
type request struct {
	id       string // X-Request-Id
	endpoint string // "attribute" or "detect"
	src      string
	body     []byte // the JSON request body, encoded before any timing
}

// plan is one workload's traffic: the warm-up that ends set-up, the
// measured sequence, and how the stack is laid out.
type plan struct {
	workload    string
	replicas    int
	routed      bool
	warmup      []request
	fill        []request // sent after set-up, before measuring; not timed
	measured    []request
	budgetMs    int // 0 sends no budget header
	reloadEvery int // 0 never reloads
}

// endpointFor alternates attribute and detect along a sequence.
func endpointFor(i int) string {
	if i%2 == 0 {
		return "attribute"
	}
	return "detect"
}

// sequence numbers srcs into requests, encoding each distinct
// source's body once.
func sequence(prefix string, srcs []string) []request {
	bodies := map[string][]byte{}
	out := make([]request, len(srcs))
	for i, s := range srcs {
		body, ok := bodies[s]
		if !ok {
			body, _ = json.Marshal(serve.AttributeRequest{Source: s}) // a string always encodes
			bodies[s] = body
		}
		out[i] = request{id: prefix + strconv.Itoa(i), endpoint: endpointFor(i), src: s, body: body}
	}
	return out
}

// buildPlan lays out a workload's requests from the seed's fixtures.
func buildPlan(workload string, fx *fixtures, seconds int) (*plan, error) {
	p := &plan{workload: workload, replicas: 1}
	switch workload {
	case "cold":
		p.warmup = sequence("w", fx.Pool[:warmupRequests])
		p.fill = sequence("f", fx.Pool[warmupRequests:warmupRequests+fillRequests])
		p.measured = sequence("m", fx.Pool[warmupRequests+fillRequests:])
	case "hostile":
		// Hostile sources land at a seeded offset inside each block of
		// hostileEvery requests, so two are never close together.
		rng := rand.New(rand.NewSource(subSeed(fx.Seed, 400)))
		var srcs []string
		rest := fx.Pool[warmupRequests+fillRequests:]
		for k := 0; len(rest) > 0; k++ {
			n := min(hostileEvery-1, len(rest))
			block := append([]string(nil), rest[:n]...)
			rest = rest[n:]
			if k < len(fx.Hostile) {
				at := hostileEvery/10 + rng.Intn(hostileEvery*8/10)
				at = min(at, len(block))
				block = append(block[:at], append([]string{fx.Hostile[k]}, block[at:]...)...)
			}
			srcs = append(srcs, block...)
		}
		p.warmup = sequence("w", fx.Pool[:warmupRequests])
		p.fill = sequence("f", fx.Pool[warmupRequests:warmupRequests+fillRequests])
		p.measured = sequence("m", srcs)
		p.budgetMs = hostileBudgetMs
	case "routed":
		ws := fx.Pool[:routedWorkingSet]
		rng := rand.New(rand.NewSource(subSeed(fx.Seed, 500)))
		srcs := make([]string, 1500*seconds)
		for i := range srcs {
			srcs[i] = ws[rng.Intn(len(ws))]
		}
		p.replicas, p.routed = 2, true
		p.warmup = sequence("w", ws)
		p.measured = sequence("m", srcs)
		p.reloadEvery = routedReloadEvery
	default:
		return nil, fmt.Errorf("unknown workload %q (want cold, routed or hostile)", workload)
	}
	return p, nil
}

// outcome is one request's result as the client saw it.
type outcome struct {
	status     int
	level      string // X-Degrade-Level
	body       []byte
	start, end time.Duration // since the window opened
	err        error
}

// stack is one running set of serving processes.
type stack struct {
	url     string   // where clients send requests
	serving []*child // every serving process (replicas and router)
	replica []*child
	router  *child
	clients []*http.Client
}

// reloadRecord is one coordinated reload the routed workload ran.
type reloadRecord struct {
	generation uint64
	set        int // index of the model set now serving
	took       time.Duration
	err        error
}

// runResult is one end-to-end pass over a workload.
type runResult struct {
	setup     []time.Duration
	stk       *stack
	outs      []outcome // measured requests in sequence order
	elapsed   time.Duration
	cpuByProc []float64 // index-aligned with stk.serving
	rssMB     float64
	reloads   []reloadRecord
	exhausted bool
	samples   []windowSample // window start, every windowRequests answers, window end
}

// windowRequests is the sub-window length of a measured pass, in
// answers: each holds ten hostile sources, every other one a routed
// reload, and its p99 has ten answers beyond it.
const windowRequests = 1000

// windowSample is the progress of the measured window at one instant.
type windowSample struct {
	at   time.Duration // since the window opened
	done int64         // requests answered so far
	cpu  []float64     // serving CPU seconds so far, by process
}

// bench bundles what every pass needs.
type bench struct {
	sup     *supervisor
	fx      *fixtures
	plan    *plan
	seconds int
	liveDir string // routed replicas load models from here
}

// launch starts a fresh stack. For routed, the live model directory is
// first reset to set A.
func (b *bench) launch() (*stack, error) {
	dir := b.fx.ModelsA
	if b.plan.routed {
		if err := installModels(b.fx.ModelsA, b.liveDir); err != nil {
			return nil, err
		}
		dir = b.liveDir
	}
	st := &stack{}
	for i := 0; i < b.plan.replicas; i++ {
		c, err := b.sup.start("attrserve", "-models", dir, "-addr", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		st.replica = append(st.replica, c)
		st.serving = append(st.serving, c)
	}
	st.url = "http://" + st.replica[0].addr
	if b.plan.routed {
		spec := ""
		for i, c := range st.replica {
			if i > 0 {
				spec += ","
			}
			spec += fmt.Sprintf("r%d=http://%s", i+1, c.addr)
		}
		c, err := b.sup.start("attrrouter", "-addr", "127.0.0.1:0", "-replicas", spec)
		if err != nil {
			return nil, err
		}
		st.router = c
		st.serving = append(st.serving, c)
		st.url = "http://" + c.addr
	}
	st.clients = newClients(clients)
	return st, nil
}

// newClients returns n HTTP clients of one keep-alive connection each.
func newClients(n int) []*http.Client {
	out := make([]*http.Client, n)
	for i := range out {
		out[i] = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}}
	}
	return out
}

// mustAnswer drives reqs to completion and fails on any non-200.
func mustAnswer(url string, cls []*http.Client, reqs []request, budgetMs int, phase string) error {
	outs, _, _ := drive(url, cls, reqs, time.Time{}, budgetMs, nil, nil)
	for i, o := range outs {
		if o.err != nil || o.status != http.StatusOK {
			return fmt.Errorf("%s request %s failed: status %d, %v", phase, reqs[i].id, o.status, o.err)
		}
	}
	return nil
}

// installModels points the live model directory at one set, file by
// file with atomic renames.
func installModels(from, live string) error {
	if err := os.MkdirAll(live, 0o755); err != nil {
		return err
	}
	for _, name := range modelFiles() {
		data, err := os.ReadFile(filepath.Join(from, name))
		if err != nil {
			return err
		}
		tmp := filepath.Join(live, name+".tmp")
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, filepath.Join(live, name)); err != nil {
			return err
		}
	}
	return nil
}

// run sets up setupRepeats fresh stacks, timing each from launch to the
// end of its warm-up, then measures the last one for b.seconds. The
// returned stack is still running; the caller stops it.
func (b *bench) run(spans *tracer) (*runResult, error) {
	res := &runResult{}
	var st *stack
	for k := 0; k < setupRepeats; k++ {
		if err := b.sup.stopAll(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var err error
		if st, err = b.launch(); err != nil {
			return nil, err
		}
		if err := mustAnswer(st.url, st.clients, b.plan.warmup, b.plan.budgetMs, "warm-up"); err != nil {
			return nil, err
		}
		res.setup = append(res.setup, time.Since(t0))
	}
	res.stk = st
	if len(b.plan.fill) > 0 {
		fill := newClients(fillClients)
		err := mustAnswer(st.url, fill, b.plan.fill, b.plan.budgetMs, "fill")
		for _, cl := range fill {
			cl.CloseIdleConnections()
		}
		if err != nil {
			return nil, err
		}
	}

	reloads := make(chan struct{}, 64) // a reload is due every routedReloadEvery requests; 64 is never reached
	var rwg sync.WaitGroup
	if b.plan.reloadEvery > 0 {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			set := 0
			for range reloads {
				set = 1 - set
				res.reloads = append(res.reloads, b.reload(st, set))
			}
		}()
	}
	cpu0, err := cpuByProcess(st.serving)
	if err != nil {
		return nil, err
	}
	res.samples = []windowSample{{cpu: cpu0}}
	var (
		answered atomic.Int64
		smu      sync.Mutex
		serr     error
		t0       = time.Now() // drive's own clock starts a moment later; sub-window lengths are what count
	)
	onDone := func(i int) {
		if b.plan.reloadEvery > 0 && (i+1)%b.plan.reloadEvery == 0 {
			reloads <- struct{}{}
		}
		n := answered.Add(1)
		if n%windowRequests != 0 {
			return
		}
		cpu, err := cpuByProcess(st.serving)
		smu.Lock()
		defer smu.Unlock()
		if err != nil {
			serr = err
			return
		}
		res.samples = append(res.samples, windowSample{at: time.Since(t0), done: n, cpu: cpu})
	}
	// The load generator shares the machine with the stack: keep its
	// garbage collector out of the window (bounded by a memory limit).
	gc := debug.SetGCPercent(-1)
	limit := debug.SetMemoryLimit(1 << 30)
	deadline := time.Now().Add(time.Duration(b.seconds) * time.Second)
	res.outs, res.elapsed, res.exhausted = drive(st.url, st.clients, b.plan.measured, deadline, b.plan.budgetMs, onDone, spans)
	end := time.Since(t0)
	debug.SetGCPercent(gc)
	debug.SetMemoryLimit(limit)
	close(reloads)
	rwg.Wait()
	if serr != nil {
		return nil, serr
	}
	cpu1, err := cpuByProcess(st.serving)
	if err != nil {
		return nil, err
	}
	res.samples = append(res.samples, windowSample{at: end, done: int64(len(res.outs)), cpu: cpu1})
	for i := range cpu1 {
		res.cpuByProc = append(res.cpuByProc, cpu1[i]-cpu0[i])
	}
	if res.rssMB, err = peakRSSMB(st.serving); err != nil {
		return nil, err
	}
	return res, nil
}

// reload swaps the live model files to set and runs one coordinated
// reload through the router, timing it from the client.
func (b *bench) reload(st *stack, set int) reloadRecord {
	rec := reloadRecord{set: set}
	from := b.fx.ModelsA
	if set == 1 {
		from = b.fx.ModelsB
	}
	if rec.err = installModels(from, b.liveDir); rec.err != nil {
		return rec
	}
	t0 := time.Now()
	resp, err := st.clients[0].Post(st.url+"/v1/reload", "application/json", nil)
	if err != nil {
		rec.err = err
		return rec
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // fully read; nothing left to report
	rec.took = time.Since(t0)
	if err != nil || resp.StatusCode != http.StatusOK {
		rec.err = fmt.Errorf("reload: status %d: %s %v", resp.StatusCode, body, err)
		return rec
	}
	var rr serve.ReloadResponse
	if rec.err = json.Unmarshal(body, &rr); rec.err == nil {
		rec.generation = rr.ModelGeneration
	}
	return rec
}

// drive sends reqs in order over closed-loop clients, one per client, until
// the sequence ends or the deadline (zero = none) passes, and returns
// the outcomes of the requests it sent, the time from the first send to
// the last answer, and whether the sequence ran out before the deadline.
// onDone, when set, is called after each answer with its index.
func drive(url string, cls []*http.Client, reqs []request, deadline time.Time, budgetMs int,
	onDone func(i int), spans *tracer) ([]outcome, time.Duration, bool) {
	outs := make([]outcome, len(reqs))
	var next atomic.Int64
	var sent atomic.Int64
	var lastEnd atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, cl := range cls {
		wg.Add(1)
		go func(cl *http.Client) {
			defer wg.Done()
			for {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				sent.Add(1)
				outs[i] = send(cl, url, reqs[i], budgetMs, t0)
				if spans != nil {
					spans.record("client."+reqs[i].endpoint, reqs[i].id, 0, t0.Add(outs[i].start), t0.Add(outs[i].end))
				}
				for {
					last := lastEnd.Load()
					if int64(outs[i].end) <= last || lastEnd.CompareAndSwap(last, int64(outs[i].end)) {
						break
					}
				}
				if onDone != nil {
					onDone(i)
				}
			}
		}(cl)
	}
	wg.Wait()
	n := int(sent.Load())
	return outs[:n], time.Duration(lastEnd.Load()), n == len(reqs)
}

// send performs one request and reads its whole answer.
func send(cl *http.Client, url string, r request, budgetMs int, t0 time.Time) outcome {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/"+r.endpoint, bytes.NewReader(r.body))
	if err != nil {
		return outcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.RequestIDHeader, r.id)
	if budgetMs > 0 {
		req.Header.Set(serve.BudgetHeader, strconv.Itoa(budgetMs))
	}
	o := outcome{start: time.Since(t0)}
	resp, err := cl.Do(req)
	if err == nil {
		o.body, err = io.ReadAll(resp.Body)
		_ = resp.Body.Close() // fully read; nothing left to report
		o.status = resp.StatusCode
		o.level = resp.Header.Get(serve.DegradeHeader)
	}
	o.end = time.Since(t0)
	o.err = err
	return o
}

// quantile returns the q-quantile of xs by nearest rank (xs unsorted).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}
