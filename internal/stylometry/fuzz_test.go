package stylometry_test

import (
	"math/rand"
	"reflect"
	"testing"

	"gptattr/internal/codegen"
	"gptattr/internal/gpt"
	"gptattr/internal/ir"
	"gptattr/internal/style"
	"gptattr/internal/stylometry"
)

// FuzzExtractPipeline feeds generated and ChatGPT-transformed C++ —
// plus whatever the fuzzer mutates them into — through the feature
// extractor and the parallel dataset builder. Extraction must never
// panic, and workers=1 vs workers=2 must agree exactly.
func FuzzExtractPipeline(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	model := gpt.NewModel(gpt.Config{Seed: 7, NumStyles: 4})
	for i := 0; i < 4; i++ {
		prog := ir.RandomProgram(rng)
		src := codegen.Render(prog, style.Random("seed", rng), rng.Int63())
		f.Add(src)
		res, err := model.Transform(src, -1, nil)
		if err == nil {
			f.Add(res.Source)
		}
	}
	f.Add("")
	f.Add("int main() { return 0; }")
	f.Add("#include <vector>\nusing namespace std;\nint main(){vector<int> v;for(int i=0;i<3;++i)v.push_back(i);}")
	f.Add("/* unterminated\nint x")
	f.Add("\"string with \\\"escapes\\\" and // not a comment\"")

	f.Fuzz(func(t *testing.T, src string) {
		feats, err := stylometry.Extract(src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		for name, v := range feats {
			if v != v { // NaN check without importing math
				t.Fatalf("feature %q is NaN", name)
			}
		}

		sources := []string{src, src + "\n"}
		seq, _, err := stylometry.ExtractAll(sources, stylometry.DegradeNone, stylometry.ExtractConfig{Workers: 1})
		if err != nil {
			return
		}
		par, _, err := stylometry.ExtractAll(sources, stylometry.DegradeNone, stylometry.ExtractConfig{Workers: 2})
		if err != nil {
			t.Fatalf("parallel extraction failed where sequential succeeded: %v", err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatal("workers=1 and workers=2 extracted different features")
		}

		if _, _, err := stylometry.BuildDatasetWith(sources, []int{0, 1}, 2,
			stylometry.VectorizerConfig{}, stylometry.ExtractConfig{Workers: 2}); err != nil {
			t.Fatalf("BuildDatasetWith failed on extractable input: %v", err)
		}
	})
}
