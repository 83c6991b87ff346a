package attribution

import (
	"fmt"
	"math/rand"
	"testing"

	"gptattr/internal/challenge"
	"gptattr/internal/codegen"
	"gptattr/internal/cppinterp"
	"gptattr/internal/ir"
	"gptattr/internal/style"
)

// makeSamples renders n authors x the 2017 challenge set.
func makeSamples(t *testing.T, n int) map[string][]string {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	out := make(map[string][]string, n)
	for a := 0; a < n; a++ {
		name := fmt.Sprintf("dev-%02d", a)
		prof := style.Random(name, rng)
		var srcs []string
		for _, ch := range challenge.ByYear(2017) {
			srcs = append(srcs, codegen.Render(ch.Prog, prof, rng.Int63()))
		}
		out[name] = srcs
	}
	return out
}

func TestFeatures(t *testing.T) {
	f, err := Features("#include <iostream>\nint main() { return 0; }")
	if err != nil {
		t.Fatalf("Features: %v", err)
	}
	if len(f) == 0 {
		t.Fatal("empty feature map")
	}
	if _, ok := f["MaxASTDepth"]; !ok {
		t.Error("missing syntactic feature")
	}
	if _, err := Features(" "); err == nil {
		t.Error("blank source accepted")
	}
}

func TestTrainAuthorshipAndPredict(t *testing.T) {
	samples := makeSamples(t, 6)
	m, err := TrainAuthorship(samples, Params{Trees: 20, Seed: 3})
	if err != nil {
		t.Fatalf("TrainAuthorship: %v", err)
	}
	if len(m.Authors()) != 6 {
		t.Fatalf("authors = %d, want 6", len(m.Authors()))
	}
	hits, total := 0, 0
	for author, srcs := range samples {
		for _, src := range srcs {
			got, err := m.Predict(src)
			if err != nil {
				t.Fatalf("Predict: %v", err)
			}
			if got == author {
				hits++
			}
			total++
		}
	}
	if acc := float64(hits) / float64(total); acc < 0.9 {
		t.Errorf("training accuracy = %.2f, want >= 0.9", acc)
	}
}

func TestTrainAuthorshipValidation(t *testing.T) {
	if _, err := TrainAuthorship(map[string][]string{"a": {"int main(){}"}}, Params{}); err == nil {
		t.Error("single author accepted")
	}
	if _, err := TrainAuthorship(map[string][]string{"a": {"int main(){}"}, "b": nil}, Params{}); err == nil {
		t.Error("author without samples accepted")
	}
}

func TestTransformerVerifiedRewrite(t *testing.T) {
	ch, err := challenge.Get(2017, "C2")
	if err != nil {
		t.Fatal(err)
	}
	prof := style.Random("orig", rand.New(rand.NewSource(4)))
	src := codegen.Render(ch.Prog, prof, 9)
	run, err := ir.Synthesize(ch.Prog, 3, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTransformer(TransformerConfig{Seed: 6})
	out, err := tr.Transform(src, run.Input)
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	got, err := cppinterp.Run(out, run.Input)
	if err != nil {
		t.Fatalf("transformed program fails: %v", err)
	}
	if got != run.Output {
		t.Error("transformed program output differs")
	}

	nct, err := tr.NCT(src, 4, run.Input)
	if err != nil {
		t.Fatalf("NCT: %v", err)
	}
	if len(nct) != 4 {
		t.Fatalf("NCT rounds = %d, want 4", len(nct))
	}
	ct, err := tr.CT(src, 4, run.Input)
	if err != nil {
		t.Fatalf("CT: %v", err)
	}
	for _, v := range append(nct, ct...) {
		got, err := cppinterp.Run(v, run.Input)
		if err != nil || got != run.Output {
			t.Fatalf("variant broken: err=%v", err)
		}
	}
}

func TestDetector(t *testing.T) {
	samples := makeSamples(t, 4)
	var human []string
	for _, srcs := range samples {
		human = append(human, srcs...)
	}
	tr := NewTransformer(TransformerConfig{Seed: 7})
	var gptSrcs []string
	for _, src := range human[:8] {
		outs, err := tr.NCT(src, 3)
		if err != nil {
			t.Fatalf("NCT: %v", err)
		}
		gptSrcs = append(gptSrcs, outs...)
	}
	det, err := TrainDetector(human, gptSrcs, Params{Trees: 20, Seed: 8})
	if err != nil {
		t.Fatalf("TrainDetector: %v", err)
	}
	isGPT, conf, err := det.IsChatGPT(gptSrcs[0])
	if err != nil {
		t.Fatal(err)
	}
	if conf < 0 || conf > 1 {
		t.Errorf("confidence %v out of range", conf)
	}
	_ = isGPT // individual calls may err either way; check aggregate below
	hits, total := 0, 0
	for _, s := range human {
		g, _, err := det.IsChatGPT(s)
		if err != nil {
			t.Fatal(err)
		}
		if !g {
			hits++
		}
		total++
	}
	for _, s := range gptSrcs {
		g, _, err := det.IsChatGPT(s)
		if err != nil {
			t.Fatal(err)
		}
		if g {
			hits++
		}
		total++
	}
	if acc := float64(hits) / float64(total); acc < 0.8 {
		t.Errorf("detector training accuracy = %.2f, want >= 0.8", acc)
	}
}

func TestTrainDetectorValidation(t *testing.T) {
	if _, err := TrainDetector(nil, []string{"int main(){}"}, Params{}); err == nil {
		t.Error("empty human class accepted")
	}
}

func TestCrossValidateAuthorship(t *testing.T) {
	samples := makeSamples(t, 5)
	acc, err := CrossValidateAuthorship(samples, 4, Params{Trees: 16, Seed: 9})
	if err != nil {
		t.Fatalf("CrossValidateAuthorship: %v", err)
	}
	if acc < 0.5 {
		t.Errorf("CV accuracy = %.2f, want >= 0.5", acc)
	}
	if _, err := CrossValidateAuthorship(samples, 1, Params{}); err == nil {
		t.Error("k=1 accepted")
	}
}

// TestCrossValidateAuthorshipChecksSamples pins that cross-validation
// refuses what TrainAuthorship refuses: one author, or an author
// without samples.
func TestCrossValidateAuthorshipChecksSamples(t *testing.T) {
	samples := makeSamples(t, 2)
	for name, bad := range map[string]map[string][]string{
		"one author":       {"dev-00": samples["dev-00"]},
		"author, no files": {"dev-00": samples["dev-00"], "dev-01": {}},
	} {
		_, trainErr := TrainAuthorship(bad, Params{Trees: 4})
		if _, err := CrossValidateAuthorship(bad, 2, Params{Trees: 4}); err == nil || trainErr == nil || err.Error() != trainErr.Error() {
			t.Errorf("%s: CrossValidateAuthorship error %v, TrainAuthorship error %v", name, err, trainErr)
		}
	}
}

func TestDetectStyle(t *testing.T) {
	src := `#include <cstdio>
int solve_case(int id)
{
	return id * 2;
}
int main()
{
	int t;
	scanf("%d", &t);
	int i = 0;
	while (i < t)
	{
		printf("%d\n", solve_case(i));
		++i;
	}
	return 0;
}`
	got := DetectStyle(src)
	wants := map[string]string{
		"naming":        "snake",
		"io":            "stdio",
		"braces":        "allman",
		"loops":         "while",
		"indent":        "tabs",
		"decomposition": "helper returns value",
		"namespace":     "std:: qualified",
	}
	for k, want := range wants {
		if got[k] != want {
			t.Errorf("DetectStyle[%s] = %q, want %q", k, got[k], want)
		}
	}
}
