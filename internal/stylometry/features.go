// Package stylometry extracts the code-stylometry feature set of
// Caliskan-Islam et al. (USENIX Security 2015) from C++ source: lexical
// features from the token stream, layout features from raw text, and
// syntactic features from the cppast parse tree (node-kind term
// frequencies, parent-child bigrams, depths). Documents become compact
// Sparse vectors, which a Vectorizer learns its columns from and
// models score directly; the name->value map form (Features) is what
// Extract and ExtractDegraded return, for the public API.
//
// Internally extraction runs on an interned vocabulary: passes write
// into a FeatureVec (dense scalar slab + interned term accumulators)
// through a pooled scratch. See vocab.go and featurevec.go.
package stylometry

import (
	"context"
	"fmt"
	"math"
	"strings"

	"gptattr/internal/cppast"
	"gptattr/internal/cpptok"
	"gptattr/internal/reuse"
)

// Features is a sparse feature vector: name -> value.
type Features map[string]float64

// Extract computes the full feature set for one source file.
func Extract(src string) (Features, error) {
	f, _, err := ExtractDegraded(context.Background(), src, DegradeNone)
	return f, err
}

// ExtractDegraded computes features under a time budget (ctx) and a
// floor (force): the returned level is at least force, and rises when
// the budget runs out mid-extraction. Passes run cheapest-first
// (lexical + layout, then syntactic, then semantic) with a
// cancellation check at each pass boundary, so budget exhaustion sheds
// the expensive tail and still returns a valid vector — the brownout
// contract is "a cheaper answer", never an error, once the source has
// lexed. The per-family output is bit-identical to the family-filtered
// map of a full extraction (pinned by TestDegradedEqualsFilteredFull):
// degraded vectors are exactly what the family-subset oracles were
// trained on.
//
// Only a budget that dies before any pass ran yields an error; the
// err != nil ⇒ no vector contract of Extract is preserved.
func ExtractDegraded(ctx context.Context, src string, force DegradeLevel) (Features, DegradeLevel, error) {
	sc := getScratch()
	defer putScratch(sc)
	level, err := sc.extractVec(ctx, src, force)
	if err != nil {
		return nil, level, err
	}
	return sc.vec.Features(), level, nil
}

// extractVec is the allocation-free core of ExtractDegraded and
// ExtractSupervised: it runs the cheapest-first pass ladder with its
// boundary checks, accumulating into the scratch's FeatureVec, which
// those two then materialize as a map or snapshot as a Sparse. The
// source is tokenized and surface-scanned in one fused pass, parsed
// once from the token buffer into the scratch's arena, and every pass
// writes through interned feature IDs — in steady state no allocation
// occurs at any degrade level.
func (sc *scratch) extractVec(ctx context.Context, src string, force DegradeLevel) (DegradeLevel, error) {
	force = force.Clamp()
	if strings.TrimSpace(src) == "" {
		return force, fmt.Errorf("stylometry: empty source")
	}
	if err := ctx.Err(); err != nil {
		return force, err
	}
	sc.vec.Reset()
	toks, _ := cpptok.ScanSurface(src, reuse.Slab(sc.toks), &sc.surf) // tolerate lexical errors
	sc.toks = toks

	lineComments, blockComments := 0, 0
	for i := range toks {
		switch toks[i].Kind {
		case cpptok.KindLineComment:
			lineComments++
		case cpptok.KindBlockComment:
			blockComments++
		}
	}
	toks = cpptok.StripCommentsInPlace(toks)
	sc.arena.Reset()
	tu := cppast.ParseTokens(toks, sc.arena)

	// The surface floor: lexical needs the token stream and the parsed
	// function list; layout needs the fused surface stats. These always
	// run — a request admitted past decode gets at least this much.
	length := float64(len(src))
	lexicalFeaturesVec(&sc.vec, toks, tu, lineComments+blockComments, &sc.surf, length)
	layoutFeaturesVec(&sc.vec, &sc.surf, lineComments, blockComments, len(src), length)

	level := force
	if level >= DegradeSurface {
		return level, nil
	}
	if ctx.Err() != nil {
		// Budget died during the surface passes: shed everything else.
		return DegradeSurface, nil
	}
	syntacticFeaturesVec(&sc.vec, tu)

	if level >= DegradeNoSemantic {
		return level, nil
	}
	if ctx.Err() != nil {
		return DegradeNoSemantic, nil
	}
	if err := semanticFeaturesCtxVec(ctx, sc, tu); err != nil {
		// The semantic pass ran out of budget part-way; the family is
		// all-or-nothing so nothing was written.
		return DegradeNoSemantic, nil
	}
	return DegradeNone, nil
}

// lnDensity computes ln((1+count)/length): the paper's
// ln(count/length) family, add-one smoothed so absent constructs stay
// finite.
func lnDensity(count int, length float64) float64 {
	return math.Log((1 + float64(count)) / length)
}

// lexicalFeaturesVec is the token-stream pass. toks is comment-free
// (comments are counted during the scan and passed in), so the loop
// sees exactly the non-comment token sequence the original
// comment-skipping loop saw.
func lexicalFeaturesVec(fv *FeatureVec, toks []cpptok.Token, tu *cppast.TranslationUnit,
	numComments int, surf *cpptok.Surface, length float64) {
	var ctrl [8]int
	var (
		numTokens, numLiterals             int
		numKeywords, numMacros, numTernary int
		identLenSum, identCount            int
		snake, camel, upper, short_, hung  int
		distinct                           int
	)
	for i := range toks {
		t := &toks[i]
		switch t.Kind {
		case cpptok.KindEOF:
			continue
		case cpptok.KindPreproc:
			if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(t.Text, "#")), "define") {
				numMacros++
			}
		case cpptok.KindIntLit, cpptok.KindFloatLit, cpptok.KindStringLit, cpptok.KindCharLit:
			numLiterals++
		case cpptok.KindKeyword:
			numKeywords++
			if ci, ok := ctrlKeywordIdx[t.Text]; ok {
				ctrl[ci]++
			}
		case cpptok.KindIdent:
			identLenSum += len(t.Text)
			identCount++
			// Word unigrams over identifiers (the dominant lexical
			// signal: naming conventions). First sight of a name in
			// this document also feeds the naming-convention counters,
			// replacing the old dedup map with the interned-term
			// first-touch signal.
			if fv.AddWord(t.Text, 1) {
				distinct++
				switch classifyNameFast(t.Text) {
				case "snake":
					snake++
				case "camel":
					camel++
				case "upper":
					upper++
				case "hungarian":
					hung++
				}
				if len(t.Text) <= 2 {
					short_++
				}
			}
		case cpptok.KindPunct:
			if t.Text == "?" {
				numTernary++
			}
		}
		numTokens++
	}
	for i := range sidLnKeywordDensity {
		fv.Set(sidLnKeywordDensity[i], lnDensity(ctrl[i], length))
	}
	fv.Set(sidLnTernaryDensity, lnDensity(numTernary, length))
	fv.Set(sidLnTokenDensity, lnDensity(numTokens, length))
	fv.Set(sidLnCommentDensity, lnDensity(numComments, length))
	fv.Set(sidLnLiteralDensity, lnDensity(numLiterals, length))
	fv.Set(sidLnKeywordTotDensity, lnDensity(numKeywords, length))
	fv.Set(sidLnMacroDensity, lnDensity(numMacros, length))
	if identCount > 0 {
		fv.Set(sidAvgIdentLength, float64(identLenSum)/float64(identCount))
	}

	fns := 0
	var sum, sumSq float64
	for _, d := range tu.Decls {
		if fn, ok := d.(*cppast.FuncDecl); ok {
			fns++
			p := float64(len(fn.Params))
			sum += p
			sumSq += p * p
		}
	}
	fv.Set(sidLnFunctionDensity, lnDensity(fns, length))
	if fns > 0 {
		mean := sum / float64(fns)
		fv.Set(sidAvgParams, mean)
		fv.Set(sidStdDevParams, math.Sqrt(maxf(0, sumSq/float64(fns)-mean*mean)))
	}

	// Line statistics come from the fused surface pass, which
	// accumulated the sums in line order (bit-identical to the old
	// strings.Split walk).
	nl := float64(surf.Lines)
	meanLine := surf.LineLenSum / nl
	fv.Set(sidAvgLineLength, meanLine)
	fv.Set(sidStdDevLineLength, math.Sqrt(maxf(0, surf.LineLenSumSq/nl-meanLine*meanLine)))

	// Naming-convention indicators: fractions of identifiers matching
	// snake_case, camelCase, UPPER_CASE, and short (<=2 chars) names.
	if identCount > 0 {
		n := float64(distinct)
		fv.Set(sidNameFracSnake, float64(snake)/n)
		fv.Set(sidNameFracCamel, float64(camel)/n)
		fv.Set(sidNameFracUpper, float64(upper)/n)
		fv.Set(sidNameFracHungarian, float64(hung)/n)
		fv.Set(sidNameFracShort, float64(short_)/n)
	}
}

// ctrlKeywordIdx maps each control keyword to its slot in the
// LnKeywordDensity ID block.
var ctrlKeywordIdx = func() map[string]int {
	m := make(map[string]int)
	for i, k := range cpptok.ControlKeywords() {
		m[k] = i
	}
	return m
}()

// isHungarianPrefix detects n/i/sz/f-prefixed camel names (nCase,
// iIndex, fValue).
func isHungarianPrefix(s string) bool {
	prefixes := []string{"n", "i", "f", "sz", "b", "p"}
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) && len(s) > len(p) {
			c := s[len(p)]
			if c >= 'A' && c <= 'Z' {
				return true
			}
		}
	}
	return false
}

// synWalker carries the syntactic pass state through one pre-order
// traversal: node/bigram term frequencies, depth aggregates, and leaf
// terms all accumulate in a single walk over VisitChildren (the old
// code's second leaf-collection walk is fused in; the order change is
// invisible because term accumulation is integer addition).
type synWalker struct {
	fv                 *FeatureVec
	maxDepth           int
	totalDepth         int
	nodeCount          int
	depthSum, depthCnt [numKinds]int
}

// walk visits n at the given depth. parent is the parent's kind index,
// -1 for the root.
func (w *synWalker) walk(n cppast.Node, depth, parent int) {
	if n == nil {
		return
	}
	k := kindID(n)
	w.fv.Add(sidNodeTF[k], 1)
	if parent >= 0 {
		w.fv.Add(sidBigram[parent*numKinds+k], 1)
	}
	if depth > w.maxDepth {
		w.maxDepth = depth
	}
	w.totalDepth += depth
	w.nodeCount++
	w.depthSum[k] += depth
	w.depthCnt[k]++
	// AST leaf terms (identifiers and literals at the leaves).
	switch l := n.(type) {
	case *cppast.Ident:
		w.fv.AddLeaf(l.Name, 1)
	case *cppast.Lit:
		if len(l.Text) <= 24 {
			w.fv.AddLeaf(l.Text, 1)
		}
	}
	cppast.VisitChildren(n, func(c cppast.Node) {
		w.walk(c, depth+1, k)
	})
}

func syntacticFeaturesVec(fv *FeatureVec, tu *cppast.TranslationUnit) {
	w := synWalker{fv: fv}
	w.walk(tu, 0, -1)

	fv.Set(sidMaxASTDepth, float64(w.maxDepth))
	if w.nodeCount > 0 {
		fv.Set(sidAvgASTDepth, float64(w.totalDepth)/float64(w.nodeCount))
	}
	for k := 0; k < numKinds; k++ {
		if w.depthCnt[k] > 0 {
			fv.Set(sidAvgDepthKind[k], float64(w.depthSum[k])/float64(w.depthCnt[k]))
		}
	}

	// Structural style signals used by the grouping stage: how much
	// logic lives outside main.
	helpers := 0
	for _, d := range tu.Decls {
		if fn, ok := d.(*cppast.FuncDecl); ok && fn.Name != "main" && fn.Body != nil {
			helpers++
		}
	}
	fv.Set(sidHelperFunctionCount, float64(helpers))
	fors, whiles, dos := w.depthCnt[kFor], w.depthCnt[kWhile], w.depthCnt[kDoWhile]
	fv.Set(sidForWhileRatio, ratio(fors, fors+whiles+dos))
}

func ratio(a, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(a) / float64(total)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
