package attrib

import (
	"context"
	"math"
	"reflect"
	"testing"

	"gptattr/internal/stylometry"
)

// TestProbaSparseAllocs pins the pooled-scratch scorer: once the sync.Pool
// is warm, vectorizing and voting into the caller's scores allocate
// nothing. ProbaSparse, the offline wrapper, allocates exactly its
// scores slice and its returned label map (a GC draining the pool
// mid-run adds one refill over 200 runs, which the per-run average
// truncates away).
func TestProbaSparseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; allocation counts are meaningless")
	}
	fx := fixture(t)
	sp, _, err := stylometry.ExtractSupervised(context.Background(), fx.human.Samples[0].Source, stylometry.DegradeNone, nil)
	if err != nil {
		t.Fatalf("ExtractSupervised: %v", err)
	}
	proba := make([]float64, len(fx.oracle.labels))
	fx.oracle.ScoreInto(sp, proba)
	if a := testing.AllocsPerRun(200, func() { fx.oracle.ScoreInto(sp, proba) }); a != 0 {
		t.Errorf("ScoreInto allocates %.2f per call, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() { fx.oracle.ProbaSparse(sp) }); a != labelMapAllocs {
		t.Errorf("ProbaSparse allocates %.2f per call, want %d (the scores and the label map)", a, labelMapAllocs)
	}
}

// TestDetectSparseAllocs pins the detector scorer at zero allocations
// on a warm pool.
func TestDetectSparseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; allocation counts are meaningless")
	}
	fx := fixture(t)
	c, err := TrainBinary(fx.human, fx.transformed, fx.cfg)
	if err != nil {
		t.Fatalf("TrainBinary: %v", err)
	}
	sp, _, err := stylometry.ExtractSupervised(context.Background(), fx.transformed.Samples[0].Source, stylometry.DegradeNone, nil)
	if err != nil {
		t.Fatalf("ExtractSupervised: %v", err)
	}
	c.DetectSparse(sp)
	if a := testing.AllocsPerRun(200, func() { c.DetectSparse(sp) }); a != 0 {
		t.Errorf("DetectSparse allocates %.2f per call, want 0", a)
	}
}

// refProba is the scorers' independent reference: a feature map
// through the map vectorizer (Vectorizer.Vector), the selected
// columns, then the forest's vote share per class.
func refProba(m *model, f stylometry.Features) []float64 {
	full := m.vec.Vector(f)
	row := make([]float64, len(m.cols))
	for i, c := range m.cols {
		row[i] = full[c]
	}
	proba := make([]float64, m.forest.NumClasses())
	m.forest.PredictProbaInto(row, proba)
	return proba
}

// TestSparseMatchesFeatures pins the scorers to the reference: for any
// source and degrade level, scoring the Sparse that supervised
// extraction returns must give, bit for bit, the answers of the map
// that ExtractDegraded materializes, scored through refProba. The
// servebench adapters ProbaFeatures/DetectFeatures must agree too.
func TestSparseMatchesFeatures(t *testing.T) {
	fx := fixture(t)
	c, err := TrainBinary(fx.human, fx.transformed, fx.cfg)
	if err != nil {
		t.Fatalf("TrainBinary: %v", err)
	}
	ctx := context.Background()
	for _, s := range []string{fx.human.Samples[0].Source, fx.transformed.Samples[0].Source} {
		for lvl := stylometry.DegradeNone; lvl <= stylometry.MaxDegrade; lvl++ {
			sp, _, err := stylometry.ExtractSupervised(ctx, s, lvl, nil)
			if err != nil {
				t.Fatalf("ExtractSupervised: %v", err)
			}
			f, _, err := stylometry.ExtractDegraded(ctx, s, lvl)
			if err != nil {
				t.Fatalf("ExtractDegraded: %v", err)
			}

			ref := refProba(&fx.oracle.model, f)
			want := make(map[string]float64, len(ref))
			best := 0
			for i, p := range ref {
				want[fx.oracle.labels[i]] = p
				if p > ref[best] {
					best = i
				}
			}
			ps, bs := fx.oracle.ProbaSparse(sp)
			pf, bf := fx.oracle.ProbaFeatures(f)
			if bs != fx.oracle.labels[best] || bf != bs || !reflect.DeepEqual(ps, want) || !reflect.DeepEqual(pf, want) {
				t.Errorf("level %v: ProbaSparse = %v %v, ProbaFeatures = %v %v, reference = %v %v",
					lvl, bs, ps, bf, pf, fx.oracle.labels[best], want)
			}

			conf := refProba(&c.model, f)[1]
			gs, cs := c.DetectSparse(sp)
			gf, cf := c.DetectFeatures(f)
			if gs != (conf > 0.5) || gf != gs || math.Float64bits(cs) != math.Float64bits(conf) || math.Float64bits(cf) != math.Float64bits(conf) {
				t.Errorf("level %v: DetectSparse = (%v, %v), DetectFeatures = (%v, %v), reference = (%v, %v)",
					lvl, gs, cs, gf, cf, conf > 0.5, conf)
			}
		}
	}
}

// TestEndToEndVecAllocs pins the allocations of one uncached serving
// request as attrserve runs it: supervised extraction through a pooled
// stylometry scratch into a Sparse, then attribution into the caller's
// per-class scores and detection straight off it. Extraction,
// vectorization and voting allocate nothing; what remains is the
// Sparse itself (header, IDs, values, names). No label-keyed map is
// built: that is ProbaSparse's, for offline callers.
func TestEndToEndVecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; allocation counts are meaningless")
	}
	fx := fixture(t)
	c, err := TrainBinary(fx.human, fx.transformed, fx.cfg)
	if err != nil {
		t.Fatalf("TrainBinary: %v", err)
	}
	ctx := context.Background()
	src := fx.human.Samples[0].Source
	proba := make([]float64, len(fx.oracle.labels))
	request := func() {
		sp, _, err := stylometry.ExtractSupervised(ctx, src, stylometry.DegradeNone, nil)
		if err != nil {
			t.Fatal(err)
		}
		fx.oracle.ScoreInto(sp, proba)
		c.DetectSparse(sp)
	}
	request()
	if a := testing.AllocsPerRun(200, request); a != endToEndAllocs {
		t.Errorf("extract+score+detect allocates %.2f per request, want %d", a, endToEndAllocs)
	}
}

// endToEndAllocs is the measured allocation count TestEndToEndVecAllocs
// pins; labelMapAllocs is ProbaSparse's scores slice plus its label ->
// probability map (four allocations for this fixture's 16 authors),
// which TestProbaSparseAllocs pins.
const (
	endToEndAllocs = 4
	labelMapAllocs = 5
)
