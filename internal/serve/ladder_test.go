package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gptattr/internal/attrib"
	"gptattr/internal/stylometry"
)

func TestLadderFileNames(t *testing.T) {
	cases := []struct {
		base string
		lvl  stylometry.DegradeLevel
		want string
	}{
		{OracleFile, stylometry.DegradeNone, "oracle.model"},
		{OracleFile, stylometry.DegradeNoSemantic, "oracle.l1.model"},
		{OracleFile, stylometry.DegradeSurface, "oracle.l2.model"},
		{DetectorFile, stylometry.DegradeNone, "detector.model"},
		{DetectorFile, stylometry.DegradeSurface, "detector.l2.model"},
	}
	for _, c := range cases {
		if got := ladderFile(c.base, c.lvl); got != c.want {
			t.Errorf("ladderFile(%q, %v) = %q, want %q", c.base, c.lvl, got, c.want)
		}
	}
}

func TestOracleForRungSelection(t *testing.T) {
	full := new(attrib.Oracle)
	l1 := new(attrib.Oracle)
	l2 := new(attrib.Oracle)

	// Full ladder: every vector level gets its exact rung.
	m := &Models{Oracles: [stylometry.DegradeLevels]*attrib.Oracle{full, l1, l2}}
	for lvl := stylometry.DegradeNone; lvl <= stylometry.MaxDegrade; lvl++ {
		o, eff := m.OracleFor(lvl)
		if o != m.Oracles[lvl] || eff != lvl {
			t.Errorf("full ladder, level %v: got rung %p eff %v", lvl, o, eff)
		}
	}

	// Missing middle rung: a level-1 vector is scored by the DEEPER
	// rung (trained on a subset of its surviving families — exact),
	// and the answer reports the rung's level.
	m = &Models{Oracles: [stylometry.DegradeLevels]*attrib.Oracle{full, nil, l2}}
	o, eff := m.OracleFor(stylometry.DegradeNoSemantic)
	if o != l2 || eff != stylometry.DegradeSurface {
		t.Errorf("missing l1: got rung %p eff %v, want l2 rung eff %v", o, eff, stylometry.DegradeSurface)
	}

	// Legacy single-model mode: only the base exists, so a degraded
	// vector falls back to it; the effective level stays the vector's.
	m = &Models{Oracles: [stylometry.DegradeLevels]*attrib.Oracle{full, nil, nil}}
	o, eff = m.OracleFor(stylometry.DegradeSurface)
	if o != full || eff != stylometry.DegradeSurface {
		t.Errorf("legacy mode: got rung %p eff %v, want base rung eff %v", o, eff, stylometry.DegradeSurface)
	}

	// Nothing loaded at all.
	m = &Models{}
	if o, _ := m.OracleFor(stylometry.DegradeNone); o != nil {
		t.Errorf("empty models returned an oracle")
	}
}

// TestRegistryLoadsLadderAtomically pins the hot-reload contract for
// ladders: a published Models never mutates, and one Load swaps every
// rung of both models together.
func TestRegistryLoadsLadderAtomically(t *testing.T) {
	// Start legacy: base files only.
	dir := modelDir(t)
	r, err := NewRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	legacy := r.Current()
	if legacy.Oracle == nil || legacy.Oracles[0] != legacy.Oracle {
		t.Fatal("base rung not aliased to Models.Oracle")
	}
	if legacy.Oracles[1] != nil || legacy.Oracles[2] != nil {
		t.Fatal("legacy directory loaded phantom ladder rungs")
	}

	// Drop the deeper rungs in and reload.
	ladOnce.Do(trainLadders)
	if ladErr != nil {
		t.Fatalf("training fixture ladders: %v", ladErr)
	}
	for lvl := stylometry.DegradeNoSemantic; lvl <= stylometry.MaxDegrade; lvl++ {
		if err := os.WriteFile(filepath.Join(dir, ladderFile(OracleFile, lvl)), ladOracleBytes[lvl], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ladderFile(DetectorFile, lvl)), ladDetBytes[lvl], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Load(); err != nil {
		t.Fatal(err)
	}
	cur := r.Current()
	if cur.Generation != legacy.Generation+1 {
		t.Fatalf("generation %d after reload, want %d", cur.Generation, legacy.Generation+1)
	}
	for lvl := stylometry.DegradeNone; lvl <= stylometry.MaxDegrade; lvl++ {
		if cur.Oracles[lvl] == nil || cur.Detectors[lvl] == nil {
			t.Fatalf("rung %v missing after ladder reload", lvl)
		}
	}
	// The old generation is immutable: requests that grabbed it before
	// the swap still see exactly what they started with.
	if legacy.Oracles[1] != nil || legacy.Oracles[2] != nil {
		t.Fatal("reload mutated a published Models (ladder swap not atomic)")
	}
}

// degradeForcingBatcher extracts real features at the given forced
// level, standing in for budget exhaustion or brownout pressure
// deterministically.
func degradeForcingBatcher(lvl stylometry.DegradeLevel) *Batcher {
	return NewBatcher(BatchConfig{
		QueueDepth: 16,
		extractFn: func(ctx context.Context, src string,
			_ stylometry.DegradeLevel) (*stylometry.Sparse, stylometry.DegradeLevel, error) {
			return stylometry.ExtractSupervised(ctx, src, lvl, nil)
		},
	})
}

// TestServerServesDegradedFromLadder is the family-fallback acceptance
// path: a degraded vector is scored by the matching rung, the response
// carries X-Degrade-Level, and confidence is discounted by that rung's
// out-of-bag calibration.
func TestServerServesDegradedFromLadder(t *testing.T) {
	r, err := NewRegistry(ladderDir(t))
	if err != nil {
		t.Fatal(err)
	}
	b := degradeForcingBatcher(stylometry.DegradeNoSemantic)
	s, err := New(Config{Registry: r, Batcher: b, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); b.Close() })

	resp, body := postJSON(t, ts.URL+"/v1/attribute", AttributeRequest{Source: sampleSource(t, 0)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded attribute: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(DegradeHeader); got != "1" {
		t.Errorf("%s = %q, want 1", DegradeHeader, got)
	}
	var ar AttributeResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Author == "" {
		t.Error("degraded answer has no author")
	}
	if ar.DegradeLevel != 1 {
		t.Errorf("DegradeLevel %d, want 1", ar.DegradeLevel)
	}
	if ar.Calibration <= 0 || ar.Calibration > 1 {
		t.Errorf("Calibration %v, want (0,1] from the ladder rung's OOB estimate", ar.Calibration)
	}
	if ar.Confidence <= 0 || ar.Confidence > ar.Calibration {
		t.Errorf("Confidence %v outside (0, calibration=%v]", ar.Confidence, ar.Calibration)
	}

	resp, body = postJSON(t, ts.URL+"/v1/detect", AttributeRequest{Source: sampleSource(t, 1)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded detect: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(DegradeHeader); got != "1" {
		t.Errorf("detect %s = %q, want 1", DegradeHeader, got)
	}
	var dr DetectResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.DegradeLevel != 1 || dr.Calibration <= 0 {
		t.Errorf("detect DegradeLevel %d Calibration %v, want 1 and > 0", dr.DegradeLevel, dr.Calibration)
	}

	// A healthz probe reports the full ladder.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if err := hr.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if h.LadderRungs != stylometry.DegradeLevels {
		t.Errorf("LadderRungs %d, want %d", h.LadderRungs, stylometry.DegradeLevels)
	}
}

// TestServerLegacyModelScoresDegraded pins the compatibility path: a
// model directory with only base files still answers degraded vectors
// (missing features read as zero), reporting the vector's level and a
// zero calibration so clients can tell the answer is uncalibrated.
func TestServerLegacyModelScoresDegraded(t *testing.T) {
	r, err := NewRegistry(modelDir(t))
	if err != nil {
		t.Fatal(err)
	}
	b := degradeForcingBatcher(stylometry.DegradeSurface)
	s, err := New(Config{Registry: r, Batcher: b, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); b.Close() })

	resp, body := postJSON(t, ts.URL+"/v1/attribute", AttributeRequest{Source: sampleSource(t, 0)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("legacy degraded attribute: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(DegradeHeader); got != "2" {
		t.Errorf("%s = %q, want 2", DegradeHeader, got)
	}
	var ar AttributeResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.DegradeLevel != 2 {
		t.Errorf("DegradeLevel %d, want 2 (the vector's level)", ar.DegradeLevel)
	}
	if ar.Calibration != 0 {
		t.Errorf("Calibration %v, want 0 (legacy base model is uncalibrated)", ar.Calibration)
	}
}

// TestRetryAfterAndEnvelopeOn503 pins the router/replica-shared error
// contract: every 503 tells clients when to come back and carries the
// request ID in the standard JSON envelope.
func TestRetryAfterAndEnvelopeOn503(t *testing.T) {
	r, err := NewRegistry(t.TempDir()) // empty: no models -> 503
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(BatchConfig{QueueDepth: 4})
	s, err := New(Config{Registry: r, Batcher: b})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); b.Close() })

	resp, body := postJSON(t, ts.URL+"/v1/attribute", AttributeRequest{Source: "int main(){}"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("503 Retry-After = %q, want \"1\"", got)
	}
	var envelope ErrorResponse
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatalf("503 body is not the standard envelope: %v (%s)", err, body)
	}
	if envelope.Error == "" {
		t.Error("503 envelope missing error message")
	}
	if envelope.RequestID == "" {
		t.Error("503 envelope missing request_id")
	}
	if envelope.RequestID != resp.Header.Get(RequestIDHeader) {
		t.Errorf("envelope request_id %q != header %q", envelope.RequestID, resp.Header.Get(RequestIDHeader))
	}
}

// TestRequestContextForBudgetClamp pins the budget-header contract:
// each hop's deadline is min(configured timeout, client budget).
func TestRequestContextForBudgetClamp(t *testing.T) {
	r, err := NewRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(BatchConfig{QueueDepth: 4})
	s, err := New(Config{Registry: r, Batcher: b, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)

	deadlineFor := func(budget string) time.Duration {
		req := httptest.NewRequest(http.MethodPost, "/v1/attribute", nil)
		if budget != "" {
			req.Header.Set(BudgetHeader, budget)
		}
		ctx, cancel := s.requestContextFor(req, "test")
		defer cancel()
		dl, ok := ctx.Deadline()
		if !ok {
			t.Fatalf("budget %q: no deadline", budget)
		}
		return time.Until(dl)
	}

	if d := deadlineFor("50"); d > 60*time.Millisecond {
		t.Errorf("budget 50ms left deadline at %v, want clamped under it", d)
	}
	if d := deadlineFor("60000"); d < 5*time.Second || d > 10*time.Second {
		t.Errorf("budget above timeout gave %v, want the configured 10s", d)
	}
	if d := deadlineFor(""); d < 5*time.Second {
		t.Errorf("no budget gave %v, want the configured timeout", d)
	}
	if d := deadlineFor("garbage"); d < 5*time.Second {
		t.Errorf("malformed budget gave %v, want the configured timeout", d)
	}
	if d := deadlineFor("-5"); d < 5*time.Second {
		t.Errorf("negative budget gave %v, want the configured timeout", d)
	}
	// Budgets too large to multiply into a Duration must not wrap
	// negative into an already-expired deadline.
	for _, huge := range []string{"10000000000000", "9223372036854775807"} {
		if d := deadlineFor(huge); d < 5*time.Second || d > 10*time.Second {
			t.Errorf("budget %s gave %v, want the configured 10s", huge, d)
		}
	}
}
