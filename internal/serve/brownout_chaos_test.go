package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gptattr/internal/fault"
	"gptattr/internal/semstats"
	"gptattr/internal/stylometry"
)

// brownoutTransitions maps every legal (single-step) controller
// transition log fragment to its direction. Any transition line NOT
// matching one of these is a jump — a monotonicity violation.
var brownoutTransitions = []string{
	"full -> no-semantic",
	"no-semantic -> surface",
	"surface -> no-semantic",
	"no-semantic -> full",
}

// TestBrownoutChaosSemstatsLatencyStorm is the serving half of the
// brownout acceptance test: a seeded latency storm on the semantic
// analysis pass (every per-function semstats pass pays injected
// latency) must never produce a hard failure — the controller detects
// the standing queue, sheds the semantic family, and every request
// still answers 200, some at degrade level > 0 scored by the fallback
// rungs. When the storm lifts, the controller walks back to full
// fidelity. All level transitions are single steps.
func TestBrownoutChaosSemstatsLatencyStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("trains ladder models and drives a latency storm")
	}
	defer fault.Disable()

	var (
		logMu sync.Mutex
		logs  []string
	)
	brown := NewBrownout(BrownoutConfig{
		Target: 5 * time.Millisecond,
		Window: 25 * time.Millisecond,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})
	r, err := NewRegistry(ladderDir(t))
	if err != nil {
		t.Fatal(err)
	}
	// One worker so injected semantic latency turns into real standing
	// queue delay.
	b := NewBatcher(BatchConfig{QueueDepth: 256, Workers: 1, Brownout: brown})
	s, err := New(Config{Registry: r, Batcher: b, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); b.Close() })

	fault.Enable(4242)
	fault.Set(semstats.PointAnalyze, fault.Policy{
		Kind: fault.KindLatency, Latency: 3 * time.Millisecond, Prob: 1.0,
	})

	// More closed-loop clients than one worker can carry: the overflow
	// has to queue behind the in-flight extraction, which is exactly
	// the standing delay the controller watches.
	const clients, perClient = 12, 6
	type answer struct {
		status int
		level  int
	}
	answers := make(chan answer, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, _, err := tryPostJSON(ts.URL+"/v1/attribute",
					AttributeRequest{Source: sampleSource(t, c*perClient+i)})
				if err != nil {
					t.Errorf("client %d: transport error under storm: %v", c, err)
					answers <- answer{status: -1}
					continue
				}
				lvl := 0
				if v, perr := strconv.Atoi(resp.Header.Get(DegradeHeader)); perr == nil {
					lvl = v
				}
				answers <- answer{status: resp.StatusCode, level: lvl}
			}
		}(c)
	}
	wg.Wait()
	close(answers)

	degraded, total := 0, 0
	for a := range answers {
		total++
		if a.status != http.StatusOK {
			t.Errorf("status %d under semantic latency storm, want 200 (brownout must shed features, not requests)", a.status)
		}
		if a.level < 0 || a.level > int(stylometry.MaxDegrade) {
			t.Errorf("degrade level %d outside the ladder", a.level)
		}
		if a.level > 0 {
			degraded++
		}
	}
	if total != clients*perClient {
		t.Fatalf("%d answers for %d requests", total, clients*perClient)
	}
	if brown.StepsUp() == 0 {
		t.Fatal("controller never stepped up under a sustained semantic latency storm")
	}
	if degraded == 0 {
		t.Fatal("no response was served degraded under the storm")
	}
	t.Logf("storm: %d/%d answers degraded, %d steps up", degraded, total, brown.StepsUp())

	// Storm lifts: the controller must walk back to full fidelity and
	// answer level 0 again (bounded wait — recovery needs one healthy
	// window per level).
	fault.Disable()
	deadline := time.Now().Add(15 * time.Second)
	recovered := false
	for time.Now().Before(deadline) {
		resp, body, err := tryPostJSON(ts.URL+"/v1/attribute",
			AttributeRequest{Source: sampleSource(t, 2)})
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-storm status %d: %s", resp.StatusCode, body)
		}
		if resp.Header.Get(DegradeHeader) == "0" && brown.Level() == stylometry.DegradeNone {
			var ar AttributeResponse
			if err := json.Unmarshal(body, &ar); err != nil || ar.Author == "" {
				t.Fatalf("post-storm full-fidelity answer unusable: %v %s", err, body)
			}
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatalf("controller never recovered to level 0 after the storm (level %v, %d down-steps)",
			brown.Level(), brown.StepsDown())
	}

	// Every logged transition is one of the four legal single steps.
	logMu.Lock()
	defer logMu.Unlock()
	for _, line := range logs {
		legal := false
		for _, tr := range brownoutTransitions {
			if strings.Contains(line, tr) {
				legal = true
				break
			}
		}
		if !legal {
			t.Errorf("non-monotone controller transition: %q", line)
		}
	}
}

// TestDegradedExtractionWorkerCountInvariant pins the determinism half
// of the brownout contract: degraded extraction is byte-identical
// at any worker count, for every forced level.
func TestDegradedExtractionWorkerCountInvariant(t *testing.T) {
	sources := make([]string, 10)
	for i := range sources {
		sources[i] = sampleSource(t, i)
	}
	for lvl := stylometry.DegradeNone; lvl <= stylometry.MaxDegrade; lvl++ {
		ref, refLevels, refErr := stylometry.ExtractAll(sources, lvl,
			stylometry.ExtractConfig{Workers: 1})
		for _, workers := range []int{2, 4} {
			got, gotLevels, gotErr := stylometry.ExtractAll(sources, lvl,
				stylometry.ExtractConfig{Workers: workers})
			if !reflect.DeepEqual(refLevels, gotLevels) {
				t.Fatalf("level %v: degrade levels differ between workers=1 and workers=%d", lvl, workers)
			}
			if (refErr == nil) != (gotErr == nil) {
				t.Fatalf("level %v: error mismatch across worker counts: %v vs %v", lvl, refErr, gotErr)
			}
			for i := range sources {
				if !reflect.DeepEqual(ref[i], got[i]) {
					t.Fatalf("level %v source %d: features differ between workers=1 and workers=%d", lvl, i, workers)
				}
			}
		}
	}
}
