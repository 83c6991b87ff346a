package stylometry

import (
	"context"
	"testing"

	"gptattr/internal/cppast"
)

// benchSrc is a realistic contest solution: two functions, nested
// loops, a global, and library I/O — enough to exercise every feature
// family including the semantic passes.
const benchSrc = `#include <iostream>
#include <vector>
using namespace std;
int best;
int score(int a, int b) {
    if (a > b) { return a - b; }
    return b - a;
}
int main() {
    int n;
    cin >> n;
    vector<int> v(n);
    for (int i = 0; i < n; i++) {
        cin >> v[i];
    }
    for (int i = 0; i < n; i++) {
        for (int j = i + 1; j < n; j++) {
            int s = score(v[i], v[j]);
            if (s > best) {
                best = s;
            }
        }
    }
    cout << best << endl;
    return 0;
}
`

// BenchmarkExtract measures the full feature extraction — lexical,
// layout, syntactic, and the semantic pass pipeline — per source.
func BenchmarkExtract(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Extract(benchSrc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSemanticFeatures isolates the semantic feature group: the
// incremental cost the semstats passes add on top of the classic
// Caliskan-Islam extraction (parse excluded, like a cached AST).
func BenchmarkSemanticFeatures(b *testing.B) {
	tu := cppast.MustParse(benchSrc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := make(Features)
		semanticFeatures(f, tu)
	}
}

// BenchmarkVectorInto pins the request path's vectorizer: filling a
// dense row from the Sparse a served extraction produces, as attrserve
// does before every forest vote, must not allocate at all.
func BenchmarkVectorInto(b *testing.B) {
	sc := getScratch()
	if _, err := sc.extractVec(context.Background(), benchSrc, DegradeNone); err != nil {
		b.Fatal(err)
	}
	doc := sc.Vec().Sparse()
	vec := NewVectorizer([]*Sparse{doc}, VectorizerConfig{MinDocFreq: 1})
	putScratch(sc)
	row := make([]float64, vec.NumFeatures())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vec.VectorIntoSparse(doc, row)
	}
	if n := testing.AllocsPerRun(100, func() { vec.VectorIntoSparse(doc, row) }); n != 0 {
		b.Fatalf("VectorIntoSparse allocates %v per run, want 0", n)
	}
}

// BenchmarkExtractVec is the steady-state serving path: budgeted
// extraction through a pooled scratch straight into the interned
// FeatureVec, no map materialization. This is what one attrserve
// request costs after warmup; the trailing AllocsPerRun check hard-
// gates the zero-allocation contract (benchdiff gates wall clock).
func BenchmarkExtractVec(b *testing.B) {
	ctx := context.Background()
	warm := getScratch()
	if _, err := warm.extractVec(ctx, benchSrc, DegradeNone); err != nil {
		b.Fatal(err)
	}
	putScratch(warm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := getScratch()
		if _, err := sc.extractVec(ctx, benchSrc, DegradeNone); err != nil {
			b.Fatal(err)
		}
		putScratch(sc)
	}
	b.StopTimer()
	if !raceEnabled {
		if n := testing.AllocsPerRun(100, func() {
			sc := getScratch()
			sc.extractVec(ctx, benchSrc, DegradeNone)
			putScratch(sc)
		}); n != 0 {
			b.Fatalf("steady-state ExtractVec allocates %v per run, want 0", n)
		}
	}
}

// BenchmarkExtractVecAfterHostile is BenchmarkExtractVec on one
// scratch that first served each hostileSources source: a reset must
// cost what the last request wrote, so the ordinary extraction costs
// what it does on a fresh scratch (same targets), and allocates
// nothing once the slabs the hostile sources outgrew are regrown.
func BenchmarkExtractVecAfterHostile(b *testing.B) {
	ctx := context.Background()
	sc := newScratch()
	for _, src := range append(hostileSources(), benchSrc) {
		if _, err := sc.extractVec(ctx, src, DegradeNone); err != nil {
			b.Fatal(err)
		}
		sc.release()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.extractVec(ctx, benchSrc, DegradeNone); err != nil {
			b.Fatal(err)
		}
		sc.release()
	}
	b.StopTimer()
	if !raceEnabled {
		if n := testing.AllocsPerRun(100, func() {
			sc.extractVec(ctx, benchSrc, DegradeNone)
			sc.release()
		}); n != 0 {
			b.Fatalf("ExtractVec after a hostile source allocates %v per run, want 0", n)
		}
	}
}

// BenchmarkExtractDegraded gates the brownout floor: a surface-forced
// extraction is what every admitted request is guaranteed even under
// max degrade, so its latency bounds worst-case batcher throughput.
func BenchmarkExtractDegraded(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := getScratch()
		if _, err := sc.extractVec(ctx, benchSrc, DegradeSurface); err != nil {
			b.Fatal(err)
		}
		putScratch(sc)
	}
}

// semanticFeatures runs the semantic feature group into a feature map
// (the map-boundary form BenchmarkSemanticFeatures times).
func semanticFeatures(f Features, tu *cppast.TranslationUnit) {
	_ = semanticFeaturesCtx(context.Background(), f, tu)
}

// semanticFeaturesCtx is the budgeted map-boundary form over the vec
// engine: extraction proper goes through semanticFeaturesCtxVec.
func semanticFeaturesCtx(ctx context.Context, f Features, tu *cppast.TranslationUnit) error {
	sc := getScratch()
	defer putScratch(sc)
	sc.vec.Reset()
	if err := semanticFeaturesCtxVec(ctx, sc, tu); err != nil {
		return err
	}
	sc.vec.mergeInto(f)
	return nil
}
