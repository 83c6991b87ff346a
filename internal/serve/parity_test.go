package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"gptattr/internal/fault"
	"gptattr/internal/featcache"
	"gptattr/internal/stylometry"
)

// paritySources returns distinct fixture sources, human and
// ChatGPT-transformed, for the answer-parity matrix.
func paritySources(t *testing.T) []string {
	t.Helper()
	ladOnce.Do(trainLadders)
	if ladErr != nil {
		t.Fatalf("training fixture ladders: %v", ladErr)
	}
	seen := make(map[string]bool)
	var out []string
	add := func(src string) {
		if !seen[src] {
			seen[src] = true
			out = append(out, src)
		}
	}
	for i := 0; i < 5; i++ {
		add(fixHuman.Samples[(7*i)%len(fixHuman.Samples)].Source)
	}
	for i := 0; i < 3; i++ {
		add(fixGPT.Samples[(5*i)%len(fixGPT.Samples)].Source)
	}
	return out
}

// offlineAnswers computes the answers the serving path must reproduce:
// stylometry.ExtractDegraded at the level, then the matching ladder
// rung's ProbaFeatures/DetectFeatures with its calibration applied —
// the same steps an offline attrib caller takes, with no batcher,
// cache or HTTP in between. Answers are memoized per (source, level).
type offlineAnswers struct {
	models *Models
	mu     sync.Mutex
	attr   map[offlineKey]AttributeResponse
	det    map[offlineKey]DetectResponse
}

type offlineKey struct {
	src   string
	level stylometry.DegradeLevel
}

func (o *offlineAnswers) features(t *testing.T, k offlineKey) stylometry.Features {
	t.Helper()
	f, got, err := stylometry.ExtractDegraded(context.Background(), k.src, k.level)
	if err != nil {
		t.Fatalf("offline extraction at level %v: %v", k.level, err)
	}
	if got != k.level {
		t.Fatalf("offline extraction landed at level %v, want %v", got, k.level)
	}
	return f
}

func (o *offlineAnswers) attribute(t *testing.T, src string, level stylometry.DegradeLevel) AttributeResponse {
	t.Helper()
	k := offlineKey{src, level}
	o.mu.Lock()
	defer o.mu.Unlock()
	if a, ok := o.attr[k]; ok {
		return a
	}
	oracle, eff := o.models.OracleFor(level)
	proba, best := oracle.ProbaFeatures(o.features(t, k))
	conf := proba[best]
	if c := oracle.Calibration(); c > 0 {
		conf *= c
	}
	a := AttributeResponse{Author: best, Proba: proba, Confidence: conf,
		DegradeLevel: int(eff), Calibration: oracle.Calibration(), ModelGeneration: o.models.Generation}
	o.attr[k] = a
	return a
}

func (o *offlineAnswers) detect(t *testing.T, src string, level stylometry.DegradeLevel) DetectResponse {
	t.Helper()
	k := offlineKey{src, level}
	o.mu.Lock()
	defer o.mu.Unlock()
	if d, ok := o.det[k]; ok {
		return d
	}
	detector, eff := o.models.DetectorFor(level)
	verdict, conf := detector.DetectFeatures(o.features(t, k))
	d := DetectResponse{ChatGPT: verdict, Confidence: conf,
		DegradeLevel: int(eff), Calibration: detector.Calibration(), ModelGeneration: o.models.Generation}
	o.det[k] = d
	return d
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// diffAttribute reports the first difference between two attribution
// answers, comparing every probability by bit pattern.
func diffAttribute(got, want AttributeResponse) error {
	if got.Author != want.Author || got.DegradeLevel != want.DegradeLevel ||
		got.ModelGeneration != want.ModelGeneration ||
		!sameBits(got.Confidence, want.Confidence) || !sameBits(got.Calibration, want.Calibration) {
		return fmt.Errorf("got author %s level %d gen %d conf %v cal %v, want %s level %d gen %d conf %v cal %v",
			got.Author, got.DegradeLevel, got.ModelGeneration, got.Confidence, got.Calibration,
			want.Author, want.DegradeLevel, want.ModelGeneration, want.Confidence, want.Calibration)
	}
	if len(got.Proba) != len(want.Proba) {
		return fmt.Errorf("got %d probabilities, want %d", len(got.Proba), len(want.Proba))
	}
	for author, p := range want.Proba {
		if q, ok := got.Proba[author]; !ok || !sameBits(p, q) {
			return fmt.Errorf("proba[%s] = %v, want %v (bit-identical)", author, q, p)
		}
	}
	return nil
}

// diffDetect reports the first difference between two detector
// answers, comparing floats by bit pattern.
func diffDetect(got, want DetectResponse) error {
	if got.ChatGPT != want.ChatGPT || got.DegradeLevel != want.DegradeLevel ||
		got.ModelGeneration != want.ModelGeneration ||
		!sameBits(got.Confidence, want.Confidence) || !sameBits(got.Calibration, want.Calibration) {
		return fmt.Errorf("got %+v, want %+v", got, want)
	}
	return nil
}

// parityCase is one point of the serving-settings matrix.
type parityCase struct {
	cache string // "none", "warm" (in-memory LRU) or "disk" (fresh cache on a warmed Dir)
	// batch is how many requests the client sends together: 1 sends
	// them one at a time, 16 keeps every request in flight at once.
	batch   int
	workers int
	floor   stylometry.DegradeLevel
	// faults, when non-empty, arms stylometry.PointExtract with each
	// kind in turn for one pass over the sources, firing on the first
	// ExtractRetries-1 attempts: always under the retry budget.
	faults []fault.Kind
}

func (c parityCase) String() string {
	name := fmt.Sprintf("cache=%s/batch=%d/workers=%d/floor=%d", c.cache, c.batch, c.workers, c.floor)
	for _, k := range c.faults {
		name += "/fault=" + k.String()
	}
	return name
}

// parityCache builds the case's feature cache. Warm and disk caches
// hold the full vectors of the even-indexed sources only, so every
// case mixes hits and misses.
func parityCache(t *testing.T, mode string, sources []string) *featcache.Cache {
	t.Helper()
	if mode == "none" {
		return nil
	}
	dir := ""
	if mode == "disk" {
		dir = t.TempDir()
	}
	warm, err := featcache.New(featcache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(sources); i += 2 {
		f, err := stylometry.Extract(sources[i])
		if err != nil {
			t.Fatal(err)
		}
		warm.Put(sources[i], f)
	}
	if mode == "warm" {
		return warm
	}
	// Disk-only: a fresh cache on the same directory has an empty LRU,
	// so every hit is served from the disk layer.
	cold, err := featcache.New(featcache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return cold
}

// parityReply is one HTTP answer, decoded on the requesting goroutine
// and checked on the test goroutine.
type parityReply struct {
	src      int
	endpoint string
	status   int
	header   string
	body     []byte
	err      error
}

// TestAnswerParityAcrossServingSettings pins that the HTTP answer for a
// source is exactly the offline answer at the level the server reports,
// whatever the cache state, client concurrency, worker count, or
// brownout floor, and with extraction faults the retry budget absorbs:
// the batcher, cache, supervisor, JSON encoding and ladder lookup add
// no drift. A cache hit must report level 0 (cached vectors are full);
// a miss must report the forced floor.
func TestAnswerParityAcrossServingSettings(t *testing.T) {
	dir := ladderDir(t)
	sources := paritySources(t)
	reg, err := NewRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	offline := &offlineAnswers{models: reg.Current(),
		attr: make(map[offlineKey]AttributeResponse), det: make(map[offlineKey]DetectResponse)}

	var cases []parityCase
	for _, cache := range []string{"none", "warm", "disk"} {
		for _, batch := range []int{1, 16} {
			for _, workers := range []int{1, 2, 4} {
				for floor := stylometry.DegradeNone; floor <= stylometry.MaxDegrade; floor++ {
					cases = append(cases, parityCase{cache: cache, batch: batch, workers: workers, floor: floor})
				}
			}
		}
	}
	cases = append(cases, parityCase{cache: "none", batch: 16, workers: 2,
		faults: []fault.Kind{fault.KindError, fault.KindPanic}})
	defer fault.Disable()
	for _, c := range cases {
		t.Run(c.String(), func(t *testing.T) {
			cache := parityCache(t, c.cache, sources)
			var fc stylometry.FeatureCache // stays a nil interface when uncached
			if cache != nil {
				fc = cache
			}
			// A window far longer than the test keeps the controller
			// from ever deciding: the floor stays where it is set.
			br := NewBrownout(BrownoutConfig{Window: time.Hour})
			br.level.Store(int32(c.floor))
			b := NewBatcher(BatchConfig{Workers: c.workers, Cache: fc, Brownout: br})
			s, err := New(Config{Registry: reg, Batcher: b, Timeout: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(func() { ts.Close(); b.Close() })

			// Requests go out in groups of c.batch; with 16 every
			// request is in flight at once, so every worker runs and
			// hits and misses interleave on the queue.
			var replies []parityReply
			var mu sync.Mutex
			send := func() {
				var wg sync.WaitGroup
				sent := 0
				for i, src := range sources {
					for _, ep := range []string{"attribute", "detect"} {
						wg.Add(1)
						go func() {
							defer wg.Done()
							r := parityReply{src: i, endpoint: ep}
							resp, body, err := tryPostJSON(ts.URL+"/v1/"+ep, AttributeRequest{Source: src})
							if err == nil {
								r.status, r.header, r.body = resp.StatusCode, resp.Header.Get(DegradeHeader), body
							}
							r.err = err
							mu.Lock()
							replies = append(replies, r)
							mu.Unlock()
						}()
						if sent++; sent%c.batch == 0 {
							wg.Wait()
						}
					}
				}
				wg.Wait()
			}
			if len(c.faults) == 0 {
				send()
			}
			for i, kind := range c.faults {
				fault.Enable(int64(41 + i))
				fault.Set(stylometry.PointExtract, fault.Policy{Kind: kind, Limit: stylometry.ExtractRetries - 1})
				send()
				if st := fault.Stats()[stylometry.PointExtract]; st.Fires != stylometry.ExtractRetries-1 {
					t.Errorf("%v fault fired %d times, want %d", kind, st.Fires, stylometry.ExtractRetries-1)
				}
				fault.Disable()
			}

			// The hit/miss expectations below hold only if the cache
			// really served the warmed sources, from the layer the case
			// names.
			if cache != nil {
				warmed := uint64((len(sources) + 1) / 2)
				st := cache.Stats()
				if st.Hits < 2*warmed {
					t.Errorf("cache hits %d, want >= %d (both endpoints of every warmed source)", st.Hits, 2*warmed)
				}
				if c.cache == "disk" && st.DiskHits < warmed {
					t.Errorf("disk hits %d, want >= %d from the fresh cache's disk layer", st.DiskHits, warmed)
				}
			}

			for _, r := range replies {
				tag := fmt.Sprintf("%s source %d", r.endpoint, r.src)
				if r.err != nil {
					t.Fatalf("%s: %v", tag, r.err)
				}
				if r.status != http.StatusOK {
					t.Fatalf("%s: status %d: %s", tag, r.status, r.body)
				}
				hit := c.cache != "none" && r.src%2 == 0
				want := c.floor
				if hit {
					want = stylometry.DegradeNone
				}
				if r.header != strconv.Itoa(int(want)) {
					t.Errorf("%s: %s = %q, want %d (cache hit %v)", tag, DegradeHeader, r.header, want, hit)
					continue
				}
				src := sources[r.src]
				if r.endpoint == "attribute" {
					var got AttributeResponse
					if err := json.Unmarshal(r.body, &got); err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					if err := diffAttribute(got, offline.attribute(t, src, want)); err != nil {
						t.Errorf("%s: HTTP answer differs from offline: %v", tag, err)
					}
					continue
				}
				var got DetectResponse
				if err := json.Unmarshal(r.body, &got); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if err := diffDetect(got, offline.detect(t, src, want)); err != nil {
					t.Errorf("%s: HTTP answer differs from offline: %v", tag, err)
				}
			}
		})
	}
}
