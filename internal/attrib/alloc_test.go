package attrib

import (
	"context"
	"reflect"
	"testing"

	"gptattr/internal/stylometry"
)

// TestPredictFeaturesAllocs pins the pooled-scratch serving path: once
// the sync.Pool is warm, Oracle.PredictFeatures must be effectively
// allocation-free (a GC draining the pool mid-run may add a stray
// refill, hence the fractional bound over 200 runs).
func TestPredictFeaturesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; allocation counts are meaningless")
	}
	fx := fixture(t)
	f, err := stylometry.Extract(fx.human.Samples[0].Source)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if a := testing.AllocsPerRun(200, func() { fx.oracle.PredictFeatures(f) }); a > 0.5 {
		t.Errorf("PredictFeatures allocates %.2f per call, want ~0", a)
	}
}

// TestDetectFeaturesAllocs does the same for the binary classifier's
// serving entry point.
func TestDetectFeaturesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; allocation counts are meaningless")
	}
	fx := fixture(t)
	c, err := TrainBinary(fx.human, fx.transformed, fx.cfg)
	if err != nil {
		t.Fatalf("TrainBinary: %v", err)
	}
	f, err := stylometry.Extract(fx.transformed.Samples[0].Source)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if a := testing.AllocsPerRun(200, func() { c.DetectFeatures(f) }); a > 0.5 {
		t.Errorf("DetectFeatures allocates %.2f per call, want ~0", a)
	}
}

// TestSparseMatchesFeatures pins the serving entry points to their
// map-boundary twins: for any source, scoring the Sparse that
// supervised extraction returns must give exactly the answers of the
// Features-map path, at every degrade level.
func TestSparseMatchesFeatures(t *testing.T) {
	fx := fixture(t)
	c, err := TrainBinary(fx.human, fx.transformed, fx.cfg)
	if err != nil {
		t.Fatalf("TrainBinary: %v", err)
	}
	for _, s := range []string{fx.human.Samples[0].Source, fx.transformed.Samples[0].Source} {
		for lvl := stylometry.DegradeNone; lvl <= stylometry.MaxDegrade; lvl++ {
			sp, _, err := stylometry.ExtractSupervised(context.Background(), s, lvl, nil)
			if err != nil {
				t.Fatalf("ExtractSupervised: %v", err)
			}
			f := sp.Features()
			ps, bs := fx.oracle.ProbaSparse(sp)
			pf, bf := fx.oracle.ProbaFeatures(f)
			if bs != bf || !reflect.DeepEqual(ps, pf) {
				t.Errorf("level %v: ProbaSparse = %v %v, ProbaFeatures = %v %v", lvl, bs, ps, bf, pf)
			}
			gs, cs := c.DetectSparse(sp)
			gf, cf := c.DetectFeatures(f)
			if gs != gf || cs != cf {
				t.Errorf("level %v: DetectSparse = (%v, %v), DetectFeatures = (%v, %v)", lvl, gs, cs, gf, cf)
			}
		}
	}
}

// TestEndToEndVecAllocs pins the allocations of one uncached serving
// request as attrserve runs it: supervised extraction through a pooled
// stylometry scratch into a Sparse, then attribution and detection
// straight off it. Extraction, vectorization and voting allocate
// nothing; what remains is the Sparse itself (header, IDs, values,
// names) and the oracle's label -> probability map (four allocations
// for this fixture's 16 authors).
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
	request := func() {
		sp, _, err := stylometry.ExtractSupervised(ctx, src, stylometry.DegradeNone, nil)
		if err != nil {
			t.Fatal(err)
		}
		fx.oracle.ProbaSparse(sp)
		c.DetectSparse(sp)
	}
	request()
	if a := testing.AllocsPerRun(200, request); a != endToEndAllocs {
		t.Errorf("extract+proba+detect allocates %.2f per request, want %d", a, endToEndAllocs)
	}
}

// endToEndAllocs is the measured allocation count TestEndToEndVecAllocs
// pins.
const endToEndAllocs = 8
