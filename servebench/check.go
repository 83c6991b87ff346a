package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"

	"gptattr/internal/serve"
	"gptattr/internal/stylometry"
)

// checker recomputes every answer in this process from the same model
// files and the same source bytes the servers saw.
type checker struct {
	sets []*serve.Models // index = model set (0 = A, 1 = B)
	// genSet maps a model_generation to the set that generation serves.
	genSet map[uint64]int

	mu   sync.Mutex
	memo map[memoKey]stylometry.Features // nil: every source is distinct
}

type memoKey struct {
	src   string
	level stylometry.DegradeLevel
}

// verdict tallies a pass's outcomes against the recomputed answers.
type verdict struct {
	ok, full, wrong int
	examples        []string // the first few wrong answers
}

func newChecker(fx *fixtures, reloads []reloadRecord, memoize bool) (*checker, error) {
	c := &checker{genSet: map[uint64]int{1: 0}}
	for _, dir := range []string{fx.ModelsA, fx.ModelsB} {
		reg, err := serve.NewRegistry(dir)
		if err != nil {
			return nil, err
		}
		c.sets = append(c.sets, reg.Current())
	}
	for _, r := range reloads {
		if r.err == nil {
			c.genSet[r.generation] = r.set
		}
	}
	if memoize {
		c.memo = map[memoKey]stylometry.Features{}
	}
	return c, nil
}

// check verifies outs (answers to reqs, index-aligned) on two workers.
func (c *checker) check(reqs []request, outs []outcome) verdict {
	var mu sync.Mutex
	var v verdict
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(outs); i += clients {
				o := outs[i]
				if o.err != nil || o.status != http.StatusOK {
					continue
				}
				level, err := c.one(reqs[i], o)
				mu.Lock()
				switch {
				case err != nil:
					v.wrong++
					if len(v.examples) < 5 {
						v.examples = append(v.examples, fmt.Sprintf("%s %s: %v", reqs[i].id, reqs[i].endpoint, err))
					}
				case level == 0:
					v.ok++
					v.full++
				default:
					v.ok++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return v
}

// features extracts src at exactly level: the vector a degraded answer
// was scored on (bit-identical to the filtered full vector).
func (c *checker) features(src string, level stylometry.DegradeLevel) (stylometry.Features, error) {
	k := memoKey{src, level}
	if c.memo != nil {
		c.mu.Lock()
		f, ok := c.memo[k]
		c.mu.Unlock()
		if ok {
			return f, nil
		}
	}
	f, got, err := stylometry.ExtractDegraded(context.Background(), src, level)
	if err != nil {
		return nil, err
	}
	if got != level {
		return nil, fmt.Errorf("re-extraction landed at level %d, want %d", got, level)
	}
	if c.memo != nil {
		c.mu.Lock()
		c.memo[k] = f
		c.mu.Unlock()
	}
	return f, nil
}

// one checks a single 200 answer and returns its degrade level.
func (c *checker) one(r request, o outcome) (int, error) {
	var gen uint64
	var level int
	var got any
	switch r.endpoint {
	case "attribute":
		var a serve.AttributeResponse
		if err := json.Unmarshal(o.body, &a); err != nil {
			return 0, err
		}
		gen, level, got = a.ModelGeneration, a.DegradeLevel, a
	default:
		var d serve.DetectResponse
		if err := json.Unmarshal(o.body, &d); err != nil {
			return 0, err
		}
		gen, level, got = d.ModelGeneration, d.DegradeLevel, d
	}
	if o.level != strconv.Itoa(level) {
		return level, fmt.Errorf("%s header %q, body level %d", serve.DegradeHeader, o.level, level)
	}
	set, ok := c.genSet[gen]
	if !ok {
		return level, fmt.Errorf("model_generation %d was never served", gen)
	}
	models := c.sets[set]
	lvl := stylometry.DegradeLevel(level)
	f, err := c.features(r.src, lvl)
	if err != nil {
		return level, err
	}
	if r.endpoint == "attribute" {
		oracle, eff := models.OracleFor(lvl)
		proba, best := oracle.ProbaFeatures(f)
		conf := proba[best]
		if cal := oracle.Calibration(); cal > 0 {
			conf *= cal
		}
		want := serve.AttributeResponse{Author: best, Proba: proba, Confidence: conf,
			DegradeLevel: int(eff), Calibration: oracle.Calibration(), ModelGeneration: gen}
		return level, sameAttribute(got.(serve.AttributeResponse), want)
	}
	detector, eff := models.DetectorFor(lvl)
	verdict, conf := detector.DetectFeatures(f)
	want := serve.DetectResponse{ChatGPT: verdict, Confidence: conf,
		DegradeLevel: int(eff), Calibration: detector.Calibration(), ModelGeneration: gen}
	if d := got.(serve.DetectResponse); d != want {
		return level, fmt.Errorf("got %+v, want %+v", d, want)
	}
	return level, nil
}

// sameAttribute compares two attributions with every probability
// bit-identical.
func sameAttribute(got, want serve.AttributeResponse) error {
	if got.Author != want.Author || got.DegradeLevel != want.DegradeLevel ||
		!sameBits(got.Confidence, want.Confidence) || !sameBits(got.Calibration, want.Calibration) {
		return fmt.Errorf("got author %s level %d conf %v cal %v, want %s level %d conf %v cal %v",
			got.Author, got.DegradeLevel, got.Confidence, got.Calibration,
			want.Author, want.DegradeLevel, want.Confidence, want.Calibration)
	}
	if len(got.Proba) != len(want.Proba) {
		return fmt.Errorf("got %d probabilities, want %d", len(got.Proba), len(want.Proba))
	}
	for k, p := range want.Proba {
		if q, ok := got.Proba[k]; !ok || !sameBits(p, q) {
			return fmt.Errorf("proba[%s] = %v, want %v", k, q, p)
		}
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
