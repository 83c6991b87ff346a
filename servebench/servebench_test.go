package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// TestFixturesDeterministic builds the fixtures of one seed twice, in
// separate cache directories, and requires byte-identical model files
// and sources; another seed must give other sources.
func TestFixturesDeterministic(t *testing.T) {
	cfg := fixtureConfig{Authors: 4, Trees: 4, TopFeats: 60, GPTRounds: 1, PoolSize: 40, Hostile: 2}
	a, err := loadFixtures(t.TempDir(), 7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadFixtures(t.TempDir(), 7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range [][2]string{{a.ModelsA, b.ModelsA}, {a.ModelsB, b.ModelsB}} {
		for _, name := range modelFiles() {
			x, err := os.ReadFile(filepath.Join(set[0], name))
			if err != nil {
				t.Fatal(err)
			}
			y, err := os.ReadFile(filepath.Join(set[1], name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(x, y) {
				t.Errorf("%s differs between two builds of seed 7", name)
			}
		}
	}
	oa, _ := os.ReadFile(filepath.Join(a.ModelsA, "oracle.model"))
	ob, _ := os.ReadFile(filepath.Join(a.ModelsB, "oracle.model"))
	if bytes.Equal(oa, ob) {
		t.Error("model sets A and B are identical; routed reloads would change nothing")
	}
	if !slices.Equal(a.Pool, b.Pool) || !slices.Equal(a.Hostile, b.Hostile) {
		t.Error("sources differ between two builds of seed 7")
	}
	if len(a.Pool) != cfg.PoolSize || len(a.Hostile) != cfg.Hostile {
		t.Errorf("got %d pool and %d hostile sources, want %d and %d", len(a.Pool), len(a.Hostile), cfg.PoolSize, cfg.Hostile)
	}
	if other := sourcePool(8, cfg.PoolSize); slices.Equal(other, a.Pool) {
		t.Error("seeds 7 and 8 gave the same sources")
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must match.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestMetricsPrintWithUnits requires every metric BENCHMARK.json
// declares to be printed, by name, with the declared unit and a finite
// value, in both modes.
func TestMetricsPrintWithUnits(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	r := &runResult{
		setup:   []time.Duration{time.Second},
		outs:    []outcome{{status: 200, start: 0, end: time.Millisecond}},
		elapsed: time.Second,
		samples: []windowSample{{cpu: []float64{0}}, {at: time.Second, done: 1, cpu: []float64{0.001}}},
	}
	e2eOut := asMetrics(endToEnd, summarize(r, verdict{ok: 1, full: 1}).values)
	layerOut := asMetrics(perLayer, layerMetrics(newTracer(), layerInputs{}))
	for _, c := range []struct {
		mode string
		want []struct{ Name, Unit string }
		got  map[string]metric
	}{{"trace 0", spec.EndToEnd, e2eOut}, {"trace 1", spec.PerLayer, layerOut}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: prints %d metrics, BENCHMARK.json declares %d", c.mode, len(c.got), len(c.want))
		}
		for _, w := range c.want {
			m, ok := c.got[w.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s is not printed", c.mode, w.Name)
			case m.Unit != w.Unit:
				t.Errorf("%s: %s prints unit %q, BENCHMARK.json says %q", c.mode, w.Name, m.Unit, w.Unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s: %s = %v", c.mode, w.Name, m.Value)
			}
		}
		if _, err := json.Marshal(result{Correct: true, Attempted: 1, Metrics: c.got}); err != nil {
			t.Errorf("%s: result line does not encode: %v", c.mode, err)
		}
	}
}
