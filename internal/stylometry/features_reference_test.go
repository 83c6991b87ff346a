package stylometry

// This file preserves the pre-FeatureVec extraction passes verbatim as
// the reference implementation for differential testing: ExtractDegraded
// through the interned-vocabulary engine must produce bit-identical
// feature maps (same keys, same Float64bits) at every degrade level.
// Intentionally frozen; golden_features.json is the cross-session pin,
// this is the wide-coverage in-process oracle.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"gptattr/internal/codegen"
	"gptattr/internal/cppast"
	"gptattr/internal/cpptok"
	"gptattr/internal/gpt"
	"gptattr/internal/ir"
	"gptattr/internal/style"
)

func refExtractDegraded(src string, force DegradeLevel) (Features, DegradeLevel, error) {
	force = force.Clamp()
	if strings.TrimSpace(src) == "" {
		return nil, force, fmt.Errorf("stylometry: empty source")
	}
	f := make(Features)
	toks, _ := cpptok.Scan(src)
	tu, _ := cppast.Parse(src)
	length := float64(len(src))
	refLexicalFeatures(f, src, toks, tu, length)
	refLayoutFeatures(f, src, toks, length)
	if force >= DegradeSurface {
		return f, force, nil
	}
	refSyntacticFeatures(f, tu)
	if force >= DegradeNoSemantic {
		return f, force, nil
	}
	refSemanticFeatures(f, tu)
	return f, DegradeNone, nil
}

func refLexicalFeatures(f Features, src string, toks []cpptok.Token, tu *cppast.TranslationUnit, length float64) {
	ctrlCounts := make(map[string]int)
	var (
		numTokens, numComments, numLiterals int
		numKeywords, numMacros, numTernary  int
		identLenSum, identCount             int
	)
	for _, t := range toks {
		switch t.Kind {
		case cpptok.KindEOF:
			continue
		case cpptok.KindLineComment, cpptok.KindBlockComment:
			numComments++
			continue
		case cpptok.KindPreproc:
			if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(t.Text, "#")), "define") {
				numMacros++
			}
		case cpptok.KindIntLit, cpptok.KindFloatLit, cpptok.KindStringLit, cpptok.KindCharLit:
			numLiterals++
		case cpptok.KindKeyword:
			numKeywords++
			if _, ok := ctrlKeywordIdx[t.Text]; ok {
				ctrlCounts[t.Text]++
			}
		case cpptok.KindIdent:
			identLenSum += len(t.Text)
			identCount++
			f["WordUnigram:"+t.Text]++
		case cpptok.KindPunct:
			if t.Text == "?" {
				numTernary++
			}
		}
		numTokens++
	}
	for _, kw := range cpptok.ControlKeywords() {
		f["LnKeywordDensity:"+kw] = lnDensity(ctrlCounts[kw], length)
	}
	f["LnTernaryDensity"] = lnDensity(numTernary, length)
	f["LnTokenDensity"] = lnDensity(numTokens, length)
	f["LnCommentDensity"] = lnDensity(numComments, length)
	f["LnLiteralDensity"] = lnDensity(numLiterals, length)
	f["LnKeywordTotalDensity"] = lnDensity(numKeywords, length)
	f["LnMacroDensity"] = lnDensity(numMacros, length)
	if identCount > 0 {
		f["AvgIdentLength"] = float64(identLenSum) / float64(identCount)
	}

	fns := tu.Functions()
	f["LnFunctionDensity"] = lnDensity(len(fns), length)
	if len(fns) > 0 {
		var sum, sumSq float64
		for _, fn := range fns {
			p := float64(len(fn.Params))
			sum += p
			sumSq += p * p
		}
		mean := sum / float64(len(fns))
		f["AvgParams"] = mean
		f["StdDevParams"] = math.Sqrt(maxf(0, sumSq/float64(len(fns))-mean*mean))
	}

	lines := strings.Split(src, "\n")
	var lineSum, lineSumSq float64
	for _, ln := range lines {
		l := float64(len(ln))
		lineSum += l
		lineSumSq += l * l
	}
	nl := float64(len(lines))
	meanLine := lineSum / nl
	f["AvgLineLength"] = meanLine
	f["StdDevLineLength"] = math.Sqrt(maxf(0, lineSumSq/nl-meanLine*meanLine))

	if identCount > 0 {
		var snake, camel, upper, short, hungarian int
		seen := make(map[string]bool)
		for _, t := range toks {
			if t.Kind != cpptok.KindIdent || seen[t.Text] {
				continue
			}
			seen[t.Text] = true
			switch refClassifyName(t.Text) {
			case "snake":
				snake++
			case "camel":
				camel++
			case "upper":
				upper++
			case "hungarian":
				hungarian++
			}
			if len(t.Text) <= 2 {
				short++
			}
		}
		n := float64(len(seen))
		f["NameFracSnake"] = float64(snake) / n
		f["NameFracCamel"] = float64(camel) / n
		f["NameFracUpper"] = float64(upper) / n
		f["NameFracHungarian"] = float64(hungarian) / n
		f["NameFracShort"] = float64(short) / n
	}
}

// refClassifyName is the original rune-walking classifier;
// TestClassifyNameFastAgrees pins the byte-level rewrite against it.
func refClassifyName(s string) string {
	if s == "" {
		return "other"
	}
	hasUnderscore := strings.Contains(s, "_")
	hasLower := strings.IndexFunc(s, func(r rune) bool { return r >= 'a' && r <= 'z' }) >= 0
	hasUpper := strings.IndexFunc(s, func(r rune) bool { return r >= 'A' && r <= 'Z' }) >= 0
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

func refLayoutFeatures(f Features, src string, toks []cpptok.Token, length float64) {
	var tabs, spaces, emptyLines, wsChars int
	lines := strings.Split(src, "\n")
	tabLeadLines, spaceLeadLines := 0, 0
	indentWidths := make(map[int]int)

	for _, ln := range lines {
		if strings.TrimSpace(ln) == "" {
			emptyLines++
			continue
		}
		switch {
		case strings.HasPrefix(ln, "\t"):
			tabLeadLines++
		case strings.HasPrefix(ln, " "):
			spaceLeadLines++
			w := 0
			for w < len(ln) && ln[w] == ' ' {
				w++
			}
			indentWidths[w]++
		}
	}
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '\t':
			tabs++
			wsChars++
		case ' ':
			spaces++
			wsChars++
		case '\n', '\r':
			wsChars++
		}
	}

	f["LnTabDensity"] = lnDensity(tabs, length)
	f["LnSpaceDensity"] = lnDensity(spaces, length)
	f["LnEmptyLineDensity"] = lnDensity(emptyLines, length)
	nonWs := len(src) - wsChars
	if nonWs > 0 {
		f["WhitespaceRatio"] = float64(wsChars) / float64(nonWs)
	}
	if tabLeadLines > spaceLeadLines {
		f["TabsLeadLines"] = 1
	}

	total := 0
	for _, c := range indentWidths {
		total += c
	}
	if total > 0 {
		for _, unit := range []int{2, 3, 4, 8} {
			if float64(indentWidths[unit]) >= 0.2*float64(total) {
				f["IndentUnit"] = float64(unit)
				break
			}
		}
	}

	sameLine, ownLine := 0, 0
	for _, ln := range lines {
		t := strings.TrimSpace(ln)
		if t == "{" {
			ownLine++
		} else if strings.HasSuffix(t, "{") && len(t) > 1 {
			sameLine++
		}
	}
	if ownLine > sameLine {
		f["NewlineBeforeOpenBrace"] = 1
	}
	f["BraceOwnLineRatio"] = ratio(ownLine, ownLine+sameLine)

	lineC, blockC := 0, 0
	for _, t := range toks {
		switch t.Kind {
		case cpptok.KindLineComment:
			lineC++
		case cpptok.KindBlockComment:
			blockC++
		}
	}
	f["LineCommentRatio"] = ratio(lineC, lineC+blockC)

	f["SpacedAssignRatio"] = refSpacedRatio(src, "=")
	f["SpaceAfterCommaRatio"] = refSpaceAfterCommaRatio(src)
}

func refSpacedRatio(src, op string) float64 {
	spaced, total := 0, 0
	for i := 1; i < len(src)-1; i++ {
		if string(src[i]) != op {
			continue
		}
		prev, next := src[i-1], src[i+1]
		if isOpChar(prev) || isOpChar(next) {
			continue
		}
		total++
		if prev == ' ' && next == ' ' {
			spaced++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(spaced) / float64(total)
}

func refSpaceAfterCommaRatio(src string) float64 {
	spaced, total := 0, 0
	for i := 0; i < len(src)-1; i++ {
		if src[i] != ',' {
			continue
		}
		total++
		if src[i+1] == ' ' {
			spaced++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(spaced) / float64(total)
}

func refSyntacticFeatures(f Features, tu *cppast.TranslationUnit) {
	maxDepth := 0
	var totalDepth, nodeCount int
	depthByKind := make(map[string][]int)
	var rec func(n cppast.Node, depth int, parent string)
	rec = func(n cppast.Node, depth int, parent string) {
		if n == nil {
			return
		}
		k := n.Kind()
		f["ASTNodeTF:"+k]++
		if parent != "" {
			f["ASTBigramTF:"+parent+">"+k]++
		}
		if depth > maxDepth {
			maxDepth = depth
		}
		totalDepth += depth
		nodeCount++
		depthByKind[k] = append(depthByKind[k], depth)
		for _, c := range n.Children() {
			rec(c, depth+1, k)
		}
	}
	rec(tu, 0, "")

	f["MaxASTDepth"] = float64(maxDepth)
	if nodeCount > 0 {
		f["AvgASTDepth"] = float64(totalDepth) / float64(nodeCount)
	}
	for k, depths := range depthByKind {
		s := 0
		for _, d := range depths {
			s += d
		}
		f["ASTAvgDepth:"+k] = float64(s) / float64(len(depths))
	}

	cppast.Walk(tu, func(n cppast.Node, _ int) bool {
		switch l := n.(type) {
		case *cppast.Ident:
			f["LeafTF:"+l.Name]++
		case *cppast.Lit:
			if len(l.Text) <= 24 {
				f["LeafTF:"+l.Text]++
			}
		}
		return true
	})

	fns := tu.Functions()
	var helpers int
	for _, fn := range fns {
		if fn.Name != "main" && fn.Body != nil {
			helpers++
		}
	}
	f["HelperFunctionCount"] = float64(helpers)
	kinds := cppast.CountKinds(tu)
	f["ForWhileRatio"] = ratio(kinds["For"], kinds["For"]+kinds["While"]+kinds["DoWhile"])
}

// refSemanticFeatures is the old map-writing semantic aggregation,
// routed through the (unchanged) semstats result struct.
func refSemanticFeatures(f Features, tu *cppast.TranslationUnit) {
	sc := newScratch()
	if err := semanticFeaturesCtxVec(context.Background(), sc, tu); err != nil {
		return
	}
	sc.vec.mergeInto(f)
}

// diffFeatures fails the test when two maps differ in keys or in the
// exact bit pattern of any value.
func diffFeatures(t *testing.T, label string, got, want Features) {
	t.Helper()
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: missing feature %q (want %v)", label, name, w)
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s: feature %q = %x (%v), want %x (%v)",
				label, name, math.Float64bits(g), g, math.Float64bits(w), w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: extra feature %q = %v", label, name, got[name])
		}
	}
	if t.Failed() {
		t.FailNow()
	}
}

// TestExtractMatchesReference runs the vec engine against the frozen
// map-based passes over generated documents at every degrade level.
// The semantic family is compared through the golden corpus instead
// (it shares semstats with the reference), so levels here pin lexical,
// layout, and syntactic byte-for-byte.
func TestExtractMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	model := gpt.NewModel(gpt.Config{Seed: 77, NumStyles: 5})
	srcs := []string{benchSrc}
	for i := 0; i < 12; i++ {
		prog := ir.RandomProgram(rng)
		srcs = append(srcs, codegen.Render(prog, style.Random(fmt.Sprintf("r%d", i), rng), rng.Int63()))
		src, _ := model.Generate(prog)
		srcs = append(srcs, src)
	}
	srcs = append(srcs,
		"int x;",
		"\t\tint\ty;\r\n// only\n/* mixed */\nint z = 1, w[3] = {1,2,3};\n",
		"#define SQ(a) ((a)*(a))\nint f(int nVal, int SZ_MAX, snake_name, CamelCase c) { return nVal; }",
	)
	for i, src := range srcs {
		for lvl := DegradeNone; lvl <= MaxDegrade; lvl++ {
			want, wantLvl, wantErr := refExtractDegraded(src, lvl)
			got, gotLvl, gotErr := ExtractDegraded(context.Background(), src, lvl)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("src %d lvl %v: err %v, ref err %v", i, lvl, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if gotLvl != wantLvl {
				t.Fatalf("src %d lvl %v: level %v, ref %v", i, lvl, gotLvl, wantLvl)
			}
			diffFeatures(t, fmt.Sprintf("src %d lvl %v", i, lvl), got, want)
		}
	}
}

// TestClassifyNameFastAgrees pins the byte-level naming classifier
// against the original rune-walking one on tokenizer-shaped and
// adversarial names.
func TestClassifyNameFastAgrees(t *testing.T) {
	names := []string{
		"", "x", "ab", "snake_case", "CamelCase", "camelCase", "UPPER",
		"UPPER_CASE", "nValue", "iIndex", "szName", "fVal", "bFlag", "pPtr",
		"_lead", "trail_", "__dunder__", "mixed_Case_Name", "a1", "A1",
		"x_y_z", "HTTPServer", "parseURL", "N", "nn", "nN",
	}
	for _, s := range names {
		if got, want := classifyNameFast(s), refClassifyName(s); got != want {
			t.Errorf("classifyNameFast(%q) = %q, refClassifyName %q", s, got, want)
		}
	}
}

// isOpChar reports whether c is an operator byte (the reference
// layout pass's operator-spacing test).
func isOpChar(c byte) bool {
	switch c {
	case '=', '<', '>', '!', '+', '-', '*', '/', '%', '&', '|', '^':
		return true
	}
	return false
}
