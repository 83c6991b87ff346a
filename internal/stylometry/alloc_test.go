package stylometry

import (
	"context"
	"testing"
)

// TestExtractVecAllocs pins the steady-state serving contract: a full
// extraction (every pass, DegradeNone) through a pooled scratch
// performs zero allocations once the scratch buffers and term-intern
// tables are warm; snapshotting it into a Sparse allocates exactly the
// Sparse (header, IDs, values, names); and vectorizing that Sparse
// allocates nothing. This is the per-request budget the batcher
// relies on — any regression here shows up as GC pressure under load.
func TestExtractVecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; allocation counts are meaningless")
	}
	ctx := context.Background()

	// Warm the pool and intern every term benchSrc produces, then build
	// a vectorizer over its vocabulary so VectorIntoSparse has columns.
	warm := getScratch()
	if _, err := warm.extractVec(ctx, benchSrc, DegradeNone); err != nil {
		t.Fatal(err)
	}
	docs := []Features{warm.Vec().Features()}
	sp := warm.Vec().Sparse()
	putScratch(warm)
	v := NewVectorizer(docs, VectorizerConfig{MinDocFreq: 1})
	row := make([]float64, v.NumFeatures())

	if a := testing.AllocsPerRun(100, func() {
		sc := getScratch()
		level, err := sc.extractVec(ctx, benchSrc, DegradeNone)
		if err != nil || level != DegradeNone {
			t.Fatalf("ExtractVec: level=%v err=%v", level, err)
		}
		putScratch(sc)
	}); a > 0 {
		t.Errorf("steady-state ExtractVec allocates %.2f per request, want 0", a)
	}
	sc := getScratch()
	defer putScratch(sc)
	if _, err := sc.extractVec(ctx, benchSrc, DegradeNone); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() { sc.Vec().Sparse() }); a != 4 {
		t.Errorf("FeatureVec.Sparse allocates %.2f per snapshot, want 4", a)
	}
	if a := testing.AllocsPerRun(100, func() { v.VectorIntoSparse(sp, row) }); a > 0 {
		t.Errorf("VectorIntoSparse allocates %.2f per call, want 0", a)
	}
}

// TestVectorIntoSparseSizeMismatchPanics documents the misuse guard.
func TestVectorIntoSparseSizeMismatchPanics(t *testing.T) {
	v := NewVectorizer([]Features{{"LineLenAvg": 1}}, VectorizerConfig{})
	defer func() {
		if recover() == nil {
			t.Fatal("VectorIntoSparse with a long row did not panic")
		}
	}()
	v.VectorIntoSparse(Features{}.Sparse(), make([]float64, v.NumFeatures()+1))
}
