package stylometry

import (
	"strings"

	"gptattr/internal/cppast"
	"gptattr/internal/cpptok"
)

// This file defines the interned feature vocabulary behind FeatureVec.
// Every feature name the extractor can emit is either:
//
//   - a fixed scalar: known at init time (plain scalars, plus the
//     per-node-kind ASTNodeTF/ASTAvgDepth blocks and the kind-pair
//     ASTBigramTF block, since the AST kind set is closed), addressed
//     by a ScalarID into a dense slab; or
//   - an open-vocabulary term (WordUnigram/LeafTF/SemShape), interned
//     through a persistent per-scratch hash table so steady-state
//     extraction never builds a feature-name string.
//
// The hot path accumulates by integer ID; the map[string]float64 form
// is materialized only at package boundaries (FeatureVec.Features).

// ScalarID indexes the fixed-vocabulary scalar slab of a FeatureVec.
type ScalarID int32

// scalarNames maps ScalarID -> feature name; IDs are assigned in
// declaration order below and are stable within a process (they are
// never serialized).
var scalarNames []string

func regScalar(name string) ScalarID {
	scalarNames = append(scalarNames, name)
	return ScalarID(len(scalarNames) - 1)
}

func regScalars(prefix string, keys []string) []ScalarID {
	ids := make([]ScalarID, len(keys))
	for i, k := range keys {
		ids[i] = regScalar(prefix + k)
	}
	return ids
}

// AST node kinds form a closed set, so per-kind and kind-pair features
// get fixed IDs too. kindID gives the hot-path type-switch mapping;
// order here must stay aligned with that switch.
var kindNames = []string{
	"TranslationUnit", "Preproc", "Using", "Typedef", "Comment",
	"Unknown", "Param", "FuncDecl", "StructDecl", "Declarator",
	"VarDecl", "Block", "If", "For", "While", "DoWhile", "Return",
	"Break", "Continue", "ExprStmt", "EmptyStmt", "SwitchCase",
	"Switch", "BinaryExpr", "UnaryExpr", "TernaryExpr", "CallExpr",
	"IndexExpr", "MemberExpr", "CastExpr", "ParenExpr", "Ident", "Lit",
}

const (
	kTranslationUnit = iota
	kPreproc
	kUsing
	kTypedef
	kComment
	kUnknown
	kParam
	kFuncDecl
	kStructDecl
	kDeclarator
	kVarDecl
	kBlock
	kIf
	kFor
	kWhile
	kDoWhile
	kReturn
	kBreak
	kContinue
	kExprStmt
	kEmptyStmt
	kSwitchCase
	kSwitch
	kBinaryExpr
	kUnaryExpr
	kTernaryExpr
	kCallExpr
	kIndexExpr
	kMemberExpr
	kCastExpr
	kParenExpr
	kIdent
	kLit
	numKinds
)

// kindID maps a node to its kind index without touching the Kind()
// string. Every cppast node type has a case (TestKindIDCoversCppast
// fails otherwise), so the default only keeps the switch total.
func kindID(n cppast.Node) int {
	switch n.(type) {
	case *cppast.TranslationUnit:
		return kTranslationUnit
	case *cppast.Preproc:
		return kPreproc
	case *cppast.UsingDirective:
		return kUsing
	case *cppast.TypedefDecl:
		return kTypedef
	case *cppast.Comment:
		return kComment
	case *cppast.Unknown:
		return kUnknown
	case *cppast.Param:
		return kParam
	case *cppast.FuncDecl:
		return kFuncDecl
	case *cppast.StructDecl:
		return kStructDecl
	case *cppast.Declarator:
		return kDeclarator
	case *cppast.VarDecl:
		return kVarDecl
	case *cppast.Block:
		return kBlock
	case *cppast.If:
		return kIf
	case *cppast.For:
		return kFor
	case *cppast.While:
		return kWhile
	case *cppast.DoWhile:
		return kDoWhile
	case *cppast.Return:
		return kReturn
	case *cppast.Break:
		return kBreak
	case *cppast.Continue:
		return kContinue
	case *cppast.ExprStmt:
		return kExprStmt
	case *cppast.EmptyStmt:
		return kEmptyStmt
	case *cppast.SwitchCase:
		return kSwitchCase
	case *cppast.Switch:
		return kSwitch
	case *cppast.BinaryExpr:
		return kBinaryExpr
	case *cppast.UnaryExpr:
		return kUnaryExpr
	case *cppast.TernaryExpr:
		return kTernaryExpr
	case *cppast.CallExpr:
		return kCallExpr
	case *cppast.IndexExpr:
		return kIndexExpr
	case *cppast.MemberExpr:
		return kMemberExpr
	case *cppast.CastExpr:
		return kCastExpr
	case *cppast.ParenExpr:
		return kParenExpr
	case *cppast.Ident:
		return kIdent
	case *cppast.Lit:
		return kLit
	default:
		return kUnknown
	}
}

func regBigrams() []ScalarID {
	ids := make([]ScalarID, numKinds*numKinds)
	for p := 0; p < numKinds; p++ {
		for c := 0; c < numKinds; c++ {
			ids[p*numKinds+c] = regScalar("ASTBigramTF:" + kindNames[p] + ">" + kindNames[c])
		}
	}
	return ids
}

// Scalar IDs, registered in one block so assignment order (and thus the
// slab layout) is fixed by this file alone.
var (
	// Lexical.
	sidLnKeywordDensity    = regScalars("LnKeywordDensity:", cpptok.ControlKeywords())
	sidLnTernaryDensity    = regScalar("LnTernaryDensity")
	sidLnTokenDensity      = regScalar("LnTokenDensity")
	sidLnCommentDensity    = regScalar("LnCommentDensity")
	sidLnLiteralDensity    = regScalar("LnLiteralDensity")
	sidLnKeywordTotDensity = regScalar("LnKeywordTotalDensity")
	sidLnMacroDensity      = regScalar("LnMacroDensity")
	sidAvgIdentLength      = regScalar("AvgIdentLength")
	sidLnFunctionDensity   = regScalar("LnFunctionDensity")
	sidAvgParams           = regScalar("AvgParams")
	sidStdDevParams        = regScalar("StdDevParams")
	sidAvgLineLength       = regScalar("AvgLineLength")
	sidStdDevLineLength    = regScalar("StdDevLineLength")
	sidNameFracSnake       = regScalar("NameFracSnake")
	sidNameFracCamel       = regScalar("NameFracCamel")
	sidNameFracUpper       = regScalar("NameFracUpper")
	sidNameFracHungarian   = regScalar("NameFracHungarian")
	sidNameFracShort       = regScalar("NameFracShort")
	// Layout.
	sidLnTabDensity       = regScalar("LnTabDensity")
	sidLnSpaceDensity     = regScalar("LnSpaceDensity")
	sidLnEmptyLineDensity = regScalar("LnEmptyLineDensity")
	sidWhitespaceRatio    = regScalar("WhitespaceRatio")
	sidTabsLeadLines      = regScalar("TabsLeadLines")
	sidIndentUnit         = regScalar("IndentUnit")
	sidNewlineBeforeBrace = regScalar("NewlineBeforeOpenBrace")
	sidBraceOwnLineRatio  = regScalar("BraceOwnLineRatio")
	sidLineCommentRatio   = regScalar("LineCommentRatio")
	sidSpacedAssignRatio  = regScalar("SpacedAssignRatio")
	sidSpaceAfterComma    = regScalar("SpaceAfterCommaRatio")
	// Syntactic (per-kind blocks plus plain scalars).
	sidNodeTF              = regScalars("ASTNodeTF:", kindNames)
	sidAvgDepthKind        = regScalars("ASTAvgDepth:", kindNames)
	sidBigram              = regBigrams()
	sidMaxASTDepth         = regScalar("MaxASTDepth")
	sidAvgASTDepth         = regScalar("AvgASTDepth")
	sidHelperFunctionCount = regScalar("HelperFunctionCount")
	sidForWhileRatio       = regScalar("ForWhileRatio")
	// Semantic.
	sidSemFuncCount        = regScalar("SemFuncCount")
	sidSemCallEdges        = regScalar("SemCallEdges")
	sidSemRecursiveFuncs   = regScalar("SemRecursiveFuncs")
	sidSemBlocksTotal      = regScalar("SemBlocksTotal")
	sidSemBlocksMax        = regScalar("SemBlocksMax")
	sidSemEdgesTotal       = regScalar("SemEdgesTotal")
	sidSemBranchesTotal    = regScalar("SemBranchesTotal")
	sidSemBranchFactorMean = regScalar("SemBranchFactorMean")
	sidSemCyclomaticMean   = regScalar("SemCyclomaticMean")
	sidSemCyclomaticMax    = regScalar("SemCyclomaticMax")
	sidSemBackEdgesTotal   = regScalar("SemBackEdgesTotal")
	sidSemLoopsTotal       = regScalar("SemLoopsTotal")
	sidSemLoopDepthMax     = regScalar("SemLoopDepthMax")
	sidSemLoopsDepth1      = regScalar("SemLoopsDepth1")
	sidSemLoopsDepth2      = regScalar("SemLoopsDepth2")
	sidSemLoopsDepth3      = regScalar("SemLoopsDepth3")
	sidSemChainsTotal      = regScalar("SemChainsTotal")
	sidSemChainLenMax      = regScalar("SemChainLenMax")
	sidSemChainLenMean     = regScalar("SemChainLenMean")
	sidSemChains0          = regScalar("SemChains0")
	sidSemChains1          = regScalar("SemChains1")
	sidSemChains2          = regScalar("SemChains2")
	sidSemChains3          = regScalar("SemChains3")
	sidSemVarsTotal        = regScalar("SemVarsTotal")
	sidSemLiveWidthMax     = regScalar("SemLiveWidthMax")
	sidSemLiveWidthMean    = regScalar("SemLiveWidthMean")
	sidSemFanOutMax        = regScalar("SemFanOutMax")
	sidSemFanInMax         = regScalar("SemFanInMax")
)

// maxTermIDs caps each term namespace's intern table; terms past the
// cap fall back to the (allocating) overflow map so pathological
// vocabularies degrade gracefully instead of growing without bound.
const maxTermIDs = 1 << 16

// termSpace interns one open-vocabulary term namespace: raw term text
// (no prefix) -> dense ID, with the full prefixed feature name built
// exactly once per distinct term. It lives in a scratch and persists
// across extractions, so steady-state lookups are a single map probe
// with no allocation. Keys are cloned on first sight — term text
// aliases request sources, which must not be pinned by the table.
type termSpace struct {
	prefix string
	ids    map[string]int32
	names  []string
}

// id returns the term's ID, or -1 when the namespace is full.
func (ts *termSpace) id(text string) int32 {
	if id, ok := ts.ids[text]; ok {
		return id
	}
	if len(ts.names) >= maxTermIDs {
		return -1
	}
	if ts.ids == nil {
		ts.ids = make(map[string]int32, 256)
	}
	name := ts.prefix + text
	id := int32(len(ts.names))
	ts.names = append(ts.names, name)
	ts.ids[name[len(ts.prefix):]] = id // key shares the name's backing
	return id
}

// asciiLower/asciiUpper report ASCII letter case; identifier names are
// ASCII by construction (the tokenizer's ident class), so the naming
// classifiers avoid the rune-decoding IndexFunc walk.
func hasLowerUpper(s string) (hasLower, hasUpper bool) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' {
			hasLower = true
		} else if c >= 'A' && c <= 'Z' {
			hasUpper = true
		}
	}
	return
}

// classifyNameFast is classifyName on the byte-level case scan; the two
// agree on all tokenizer-produced identifiers (ASCII), which is pinned
// by TestClassifyNameFastAgrees.
func classifyNameFast(s string) string {
	if s == "" {
		return "other"
	}
	hasUnderscore := strings.IndexByte(s, '_') >= 0
	hasLower, hasUpper := hasLowerUpper(s)
	switch {
	case hasUpper && !hasLower:
		return "upper"
	case hasUnderscore && hasLower && !hasUpper:
		return "snake"
	case len(s) > 2 && isHungarianPrefix(s):
		return "hungarian"
	case hasLower && hasUpper && !hasUnderscore:
		return "camel"
	default:
		return "other"
	}
}
