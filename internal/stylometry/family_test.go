package stylometry

import "testing"

func TestFamilyClassification(t *testing.T) {
	tests := []struct {
		name string
		want FeatureFamily
	}{
		{"WordUnigram:numCases", FamilyLexical},
		{"LnKeywordDensity:for", FamilyLexical},
		{"AvgIdentLength", FamilyLexical},
		{"NameFracSnake", FamilyLexical},
		{"AvgLineLength", FamilyLexical},
		{"LnTabDensity", FamilyLayout},
		{"LnSpaceDensity", FamilyLayout},
		{"WhitespaceRatio", FamilyLayout},
		{"IndentUnit", FamilyLayout},
		{"NewlineBeforeOpenBrace", FamilyLayout},
		{"SpaceAfterCommaRatio", FamilyLayout},
		{"ASTNodeTF:For", FamilySyntactic},
		{"ASTBigramTF:Block>For", FamilySyntactic},
		{"MaxASTDepth", FamilySyntactic},
		{"LeafTF:main", FamilySyntactic},
		{"ForWhileRatio", FamilySyntactic},
		{"HelperFunctionCount", FamilySyntactic},
		{"SemCyclomaticMean", FamilySemantic},
		{"SemLoopDepthMax", FamilySemantic},
		{"SemShape:(+= v lit:int)", FamilySemantic},
		{"SemFanOutMax", FamilySemantic},
	}
	for _, tt := range tests {
		if got := Family(tt.name); got != tt.want {
			t.Errorf("Family(%q) = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestFamilyString(t *testing.T) {
	if FamilyLexical.String() != "lexical" || FamilyLayout.String() != "layout" ||
		FamilySyntactic.String() != "syntactic" || FamilySemantic.String() != "semantic" {
		t.Error("family names wrong")
	}
	if FeatureFamily(99).String() != "unknown" {
		t.Error("unknown family name wrong")
	}
}

func TestFilterFamily(t *testing.T) {
	doc := Features{
		"WordUnigram:x": 1,
		"LnTabDensity":  2,
		"ASTNodeTF:For": 3,
	}
	lay := doc.Sparse().Features(FamilyLayout)
	if len(lay) != 1 || lay["LnTabDensity"] != 2 {
		t.Errorf("layout filter wrong: %v", lay)
	}
	syn := doc.Sparse().Features(FamilySyntactic)
	if len(syn) != 1 || syn["ASTNodeTF:For"] != 3 {
		t.Errorf("syntactic filter wrong: %v", syn)
	}
	// Original untouched.
	if len(doc) != 3 {
		t.Error("filtering mutated input")
	}
}

// TestEveryExtractedFeatureHasAFamily guards against new features
// falling into the wrong family silently: every extracted feature must
// classify into one of the four families, and a realistic source must
// produce features in all four.
func TestEveryExtractedFeatureHasAFamily(t *testing.T) {
	f, err := Extract(sampleA)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[FeatureFamily]int{}
	for name := range f {
		fam := Family(name)
		switch fam {
		case FamilyLexical, FamilyLayout, FamilySyntactic, FamilySemantic:
			seen[fam]++
		default:
			t.Errorf("feature %q has unknown family", name)
		}
	}
	for _, fam := range AllFamilies {
		if seen[fam] == 0 {
			t.Errorf("no %v features extracted from sampleA", fam)
		}
	}
}
