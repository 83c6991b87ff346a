package stylometry

import "strings"

// FeatureFamily groups features the way the paper's background section
// does — lexical (token stream), layout (formatting), syntactic (AST) —
// plus the semantic group derived from internal/semstats (CFG shape,
// loop nesting, def-use, call graph, expression shapes).
type FeatureFamily int

// Families.
const (
	FamilyLexical FeatureFamily = iota + 1
	FamilyLayout
	FamilySyntactic
	FamilySemantic
)

// AllFamilies lists every family in declaration order.
var AllFamilies = []FeatureFamily{FamilyLexical, FamilyLayout, FamilySyntactic, FamilySemantic}

// String names the family.
func (f FeatureFamily) String() string {
	switch f {
	case FamilyLexical:
		return "lexical"
	case FamilyLayout:
		return "layout"
	case FamilySyntactic:
		return "syntactic"
	case FamilySemantic:
		return "semantic"
	default:
		return "unknown"
	}
}

// layoutPrefixes mark layout features; checked before the broader
// lexical Ln* prefix.
var layoutPrefixes = []string{
	"LnTabDensity", "LnSpaceDensity", "LnEmptyLineDensity",
	"WhitespaceRatio", "TabsLeadLines", "IndentUnit",
	"NewlineBeforeOpenBrace", "BraceOwnLineRatio", "LineCommentRatio",
	"SpacedAssignRatio", "SpaceAfterCommaRatio",
}

var syntacticPrefixes = []string{
	"AST", "MaxASTDepth", "AvgASTDepth", "LeafTF:",
	"HelperFunctionCount", "ForWhileRatio",
}

// Family classifies a feature name.
func Family(name string) FeatureFamily {
	if strings.HasPrefix(name, "Sem") {
		return FamilySemantic
	}
	for _, p := range layoutPrefixes {
		if strings.HasPrefix(name, p) {
			return FamilyLayout
		}
	}
	for _, p := range syntacticPrefixes {
		if strings.HasPrefix(name, p) {
			return FamilySyntactic
		}
	}
	return FamilyLexical
}
