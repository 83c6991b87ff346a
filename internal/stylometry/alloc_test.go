package stylometry

import (
	"context"
	"testing"
)

// TestExtractVecAllocs pins the steady-state serving contract: a full
// extraction (every pass, DegradeNone) through a pooled Scratch
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
	warm := GetScratch()
	if _, err := warm.ExtractVec(ctx, benchSrc, DegradeNone); err != nil {
		t.Fatal(err)
	}
	docs := []Features{warm.Vec().Features()}
	sp := warm.Vec().Sparse()
	PutScratch(warm)
	v := NewVectorizer(docs, VectorizerConfig{MinDocFreq: 1, UseTFIDF: true})
	row := make([]float64, v.NumFeatures())

	if a := testing.AllocsPerRun(100, func() {
		sc := GetScratch()
		level, err := sc.ExtractVec(ctx, benchSrc, DegradeNone)
		if err != nil || level != DegradeNone {
			t.Fatalf("ExtractVec: level=%v err=%v", level, err)
		}
		PutScratch(sc)
	}); a > 0 {
		t.Errorf("steady-state ExtractVec allocates %.2f per request, want 0", a)
	}
	sc := GetScratch()
	defer PutScratch(sc)
	if _, err := sc.ExtractVec(ctx, benchSrc, DegradeNone); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() { sc.Vec().Sparse() }); a != 4 {
		t.Errorf("FeatureVec.Sparse allocates %.2f per snapshot, want 4", a)
	}
	if a := testing.AllocsPerRun(100, func() { v.VectorIntoSparse(sp, row) }); a > 0 {
		t.Errorf("VectorIntoSparse allocates %.2f per call, want 0", a)
	}
}

// TestVectorIntoAllocs pins VectorInto's allocation-free contract: the
// serving path reuses one row buffer across requests and vectorization
// must not allocate per call.
func TestVectorIntoAllocs(t *testing.T) {
	docs := []Features{
		{"WordUnigram:for": 2, "WordUnigram:int": 1, "LineLenAvg": 14.5},
		{"WordUnigram:for": 1, "WordUnigram:while": 3, "LineLenAvg": 22.0},
		{"WordUnigram:int": 4, "LeafTF:x": 2, "LineLenAvg": 9.1},
	}
	v := NewVectorizer(docs, VectorizerConfig{MinDocFreq: 1, UseTFIDF: true})
	row := make([]float64, v.NumFeatures())
	if a := testing.AllocsPerRun(100, func() { v.VectorInto(docs[0], row) }); a > 0 {
		t.Errorf("VectorInto allocates %.2f per call, want 0", a)
	}
}

// TestVectorIntoSizeMismatchPanics documents the misuse guard.
func TestVectorIntoSizeMismatchPanics(t *testing.T) {
	v := NewVectorizer([]Features{{"LineLenAvg": 1}}, VectorizerConfig{})
	defer func() {
		if recover() == nil {
			t.Fatal("VectorInto with short row did not panic")
		}
	}()
	v.VectorInto(Features{}, make([]float64, v.NumFeatures()+1))
}
