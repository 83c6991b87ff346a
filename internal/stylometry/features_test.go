package stylometry

import (
	"math"
	"strings"
	"testing"

	"gptattr/internal/cpptok"
)

const sampleA = `#include <iostream>
using namespace std;
int main() {
    int nCase;
    cin >> nCase;
    for (int iCase = 1; iCase <= nCase; ++iCase) {
        int d, n;
        cin >> d >> n;
        cout << d + n << endl;
    }
    return 0;
}`

const sampleB = `#include <cstdio>
/* block comment style */
int solve_case(int case_id)
{
	int d;
	int n;
	scanf("%d %d", &d, &n);
	printf("Case #%d: %d\n", case_id, d + n);
	return 0;
}
int main()
{
	int num_cases;
	scanf("%d", &num_cases);
	while (num_cases--)
	{
		solve_case(num_cases);
	}
	return 0;
}`

func TestExtractBasics(t *testing.T) {
	f, err := Extract(sampleA)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	// Word unigrams present for identifiers.
	if f["WordUnigram:nCase"] != 3 {
		t.Errorf("WordUnigram:nCase = %v, want 3", f["WordUnigram:nCase"])
	}
	// Control-keyword density features exist for all six keywords.
	for _, kw := range []string{"do", "if", "else", "switch", "for", "while"} {
		if _, ok := f["LnKeywordDensity:"+kw]; !ok {
			t.Errorf("missing LnKeywordDensity:%s", kw)
		}
	}
	// "for" appears once; its density must exceed the absent "while".
	if f["LnKeywordDensity:for"] <= f["LnKeywordDensity:while"] {
		t.Errorf("for density %v not > while density %v",
			f["LnKeywordDensity:for"], f["LnKeywordDensity:while"])
	}
	if f["MaxASTDepth"] < 6 {
		t.Errorf("MaxASTDepth = %v, want >= 6", f["MaxASTDepth"])
	}
	if f["ASTNodeTF:For"] != 1 {
		t.Errorf("ASTNodeTF:For = %v, want 1", f["ASTNodeTF:For"])
	}
	if f["ASTBigramTF:Block>For"] != 1 {
		t.Errorf("ASTBigramTF:Block>For = %v, want 1", f["ASTBigramTF:Block>For"])
	}
}

func TestExtractEmptySource(t *testing.T) {
	if _, err := Extract("   \n\t "); err == nil {
		t.Error("Extract of blank source succeeded")
	}
}

func TestLayoutDiscriminatesStyles(t *testing.T) {
	fa, err := Extract(sampleA)
	if err != nil {
		t.Fatalf("Extract A: %v", err)
	}
	fb, err := Extract(sampleB)
	if err != nil {
		t.Fatalf("Extract B: %v", err)
	}
	// Sample A: 4-space indents, K&R braces, camel/hungarian names.
	// Sample B: tab indents, Allman braces, snake names, block comment.
	if fa["TabsLeadLines"] != 0 {
		t.Error("A should not be tab-led")
	}
	if fb["TabsLeadLines"] != 1 {
		t.Error("B should be tab-led")
	}
	if fa["IndentUnit"] != 4 {
		t.Errorf("A indent unit = %v, want 4", fa["IndentUnit"])
	}
	if fa["NewlineBeforeOpenBrace"] != 0 {
		t.Error("A is K&R; NewlineBeforeOpenBrace should be 0")
	}
	if fb["NewlineBeforeOpenBrace"] != 1 {
		t.Error("B is Allman; NewlineBeforeOpenBrace should be 1")
	}
	if fb["LineCommentRatio"] != 0 {
		t.Errorf("B uses block comments only; LineCommentRatio = %v", fb["LineCommentRatio"])
	}
	if fa["NameFracSnake"] >= fb["NameFracSnake"] {
		t.Errorf("snake fraction A %v should be < B %v", fa["NameFracSnake"], fb["NameFracSnake"])
	}
	if fa["NameFracHungarian"] <= fb["NameFracHungarian"] {
		t.Errorf("hungarian fraction A %v should be > B %v", fa["NameFracHungarian"], fb["NameFracHungarian"])
	}
	if fb["HelperFunctionCount"] != 1 {
		t.Errorf("B helper count = %v, want 1", fb["HelperFunctionCount"])
	}
	if fa["HelperFunctionCount"] != 0 {
		t.Errorf("A helper count = %v, want 0", fa["HelperFunctionCount"])
	}
}

func TestClassifyName(t *testing.T) {
	tests := []struct {
		name string
		want string
	}{
		{"solve_case", "snake"},
		{"numCases", "camel"},
		{"MAXN", "upper"},
		{"nCase", "hungarian"},
		{"iCase", "hungarian"},
		{"x", "other"},
		{"main", "other"},
		{"", "other"},
	}
	for _, tt := range tests {
		if got := classifyNameFast(tt.name); got != tt.want {
			t.Errorf("classifyNameFast(%q) = %q, want %q", tt.name, got, tt.want)
		}
	}
}

func TestSpacedRatios(t *testing.T) {
	src := "int a = 1;\nint b=2;\nf(x, y);\ng(p,q);\nif (a == b) {}"
	var surf cpptok.Surface
	if _, err := cpptok.ScanSurface(src, nil, &surf); err != nil {
		t.Fatal(err)
	}
	if got := ratio(surf.EqSpaced, surf.EqTotal); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("spaced-assign ratio = %v, want 0.5 (== must not count)", got)
	}
	if got := ratio(surf.CommaSpaced, surf.CommaTotal); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("space-after-comma ratio = %v, want 0.5", got)
	}
}

func TestLnDensityMonotone(t *testing.T) {
	if lnDensity(0, 100) >= lnDensity(5, 100) {
		t.Error("lnDensity not monotone in count")
	}
	if !finite(lnDensity(0, 100)) {
		t.Error("lnDensity(0) not finite")
	}
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

func TestAllFeaturesFinite(t *testing.T) {
	for _, src := range []string{sampleA, sampleB, "int main(){}"} {
		f, err := Extract(src)
		if err != nil {
			t.Fatalf("Extract: %v", err)
		}
		for name, val := range f {
			if !finite(val) {
				t.Errorf("feature %q = %v (not finite) for %q...", name, val, src[:20])
			}
		}
	}
}

func TestVectorizer(t *testing.T) {
	docs := []Features{
		{"WordUnigram:alpha": 2, "AvgLineLength": 10},
		{"WordUnigram:alpha": 1, "WordUnigram:rare": 1, "AvgLineLength": 20},
		{"WordUnigram:alpha": 3, "AvgLineLength": 30},
	}
	v := NewVectorizer(docs, VectorizerConfig{MinDocFreq: 2})
	names := v.FeatureNames()
	for _, n := range names {
		if n == "WordUnigram:rare" {
			t.Error("rare term survived MinDocFreq=2")
		}
	}
	found := false
	for _, n := range names {
		if n == "WordUnigram:alpha" {
			found = true
		}
	}
	if !found {
		t.Error("frequent term missing from dictionary")
	}
	// Scalar features are kept regardless of document frequency.
	vec := v.Vector(docs[0])
	if len(vec) != v.NumFeatures() {
		t.Fatalf("vector length %d != dict size %d", len(vec), v.NumFeatures())
	}
	// Unknown features are ignored silently.
	_ = v.Vector(Features{"WordUnigram:never-seen": 9})
}

func TestVectorizerDeterministicOrder(t *testing.T) {
	docs := []Features{
		{"b": 1, "a": 1, "c": 1},
		{"c": 1, "a": 1, "b": 1},
	}
	v1 := NewVectorizer(docs, VectorizerConfig{MinDocFreq: 1})
	v2 := NewVectorizer([]Features{docs[1], docs[0]}, VectorizerConfig{MinDocFreq: 1})
	n1, n2 := v1.FeatureNames(), v2.FeatureNames()
	if strings.Join(n1, ",") != strings.Join(n2, ",") {
		t.Errorf("column order unstable: %v vs %v", n1, n2)
	}
}

func TestBuildDataset(t *testing.T) {
	sources := []string{sampleA, sampleB, sampleA}
	labels := []int{0, 1, 0}
	d, v, err := BuildDatasetWith(sources, labels, 2, VectorizerConfig{MinDocFreq: 1}, ExtractConfig{})
	if err != nil {
		t.Fatalf("BuildDatasetWith: %v", err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("dataset invalid: %v", err)
	}
	if len(d.X) != 3 || d.NumFeatures() != v.NumFeatures() {
		t.Errorf("dataset shape %dx%d unexpected", len(d.X), d.NumFeatures())
	}
	// Identical sources must produce identical rows.
	for j := range d.X[0] {
		if d.X[0][j] != d.X[2][j] {
			t.Errorf("identical sources produced different vectors at col %d", j)
			break
		}
	}
}

func TestBuildDatasetPropagatesError(t *testing.T) {
	if _, _, err := BuildDatasetWith([]string{""}, []int{0}, 1, VectorizerConfig{}, ExtractConfig{}); err == nil {
		t.Error("BuildDatasetWith with empty source succeeded")
	}
}
