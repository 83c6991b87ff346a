package stylometry

import "fmt"

// DegradeLevel is the brownout ladder position of an extracted vector:
// how many feature families were shed to fit the request's budget.
// Level 0 is the full feature set; each higher level drops the most
// expensive remaining family. The ladder is nested — every feature
// present at level N is present at every level below N — which is what
// lets a model trained on a level's family subset score any vector at
// that level exactly (see attrib ladder training and the serve
// registry).
type DegradeLevel int

// The ladder, cheapest-to-compute last.
const (
	// DegradeNone is the full feature set: lexical + layout +
	// syntactic + semantic.
	DegradeNone DegradeLevel = iota
	// DegradeNoSemantic sheds the semstats-derived semantic family
	// (CFG, loop and dataflow passes — the expensive tail).
	DegradeNoSemantic
	// DegradeSurface additionally sheds the syntactic family (AST
	// walks), leaving layout + lexical. The source is still tokenized
	// and parsed — the lexical family needs the function list — so
	// this is the floor, not a trivial vector.
	DegradeSurface

	// MaxDegrade is the deepest level; DegradeLevels counts them.
	MaxDegrade    = DegradeSurface
	DegradeLevels = int(MaxDegrade) + 1
)

// String renders the level for logs and headers.
func (d DegradeLevel) String() string {
	switch d {
	case DegradeNone:
		return "full"
	case DegradeNoSemantic:
		return "no-semantic"
	case DegradeSurface:
		return "surface"
	default:
		return fmt.Sprintf("DegradeLevel(%d)", int(d))
	}
}

// Clamp bounds the level to the ladder.
func (d DegradeLevel) Clamp() DegradeLevel {
	if d < DegradeNone {
		return DegradeNone
	}
	if d > MaxDegrade {
		return MaxDegrade
	}
	return d
}

// Families returns the feature families surviving at this level, in
// declaration order. The subsets are nested: Families(n+1) ⊂
// Families(n).
func (d DegradeLevel) Families() []FeatureFamily {
	switch d.Clamp() {
	case DegradeNoSemantic:
		return []FeatureFamily{FamilyLexical, FamilyLayout, FamilySyntactic}
	case DegradeSurface:
		return []FeatureFamily{FamilyLexical, FamilyLayout}
	default:
		return []FeatureFamily{FamilyLexical, FamilyLayout, FamilySyntactic, FamilySemantic}
	}
}

// Keeps reports whether the family survives at this level.
func (d DegradeLevel) Keeps(fam FeatureFamily) bool {
	for _, f := range d.Clamp().Families() {
		if f == fam {
			return true
		}
	}
	return false
}
