package stylometry

// layoutFeaturesVec derives formatting features — whitespace densities,
// indentation style, brace placement, comment style, operator spacing —
// from the Surface statistics the tokenizer accumulated during its
// single fused pass over the raw text (see cpptok.ScanSurface). The
// old implementation re-walked the source four times; the formulas
// here consume the same counts in the same arithmetic order, so the
// output is bit-identical (pinned by the golden corpus and the
// reference differential test).
import "gptattr/internal/cpptok"

func layoutFeaturesVec(fv *FeatureVec, surf *cpptok.Surface,
	lineComments, blockComments, srcLen int, length float64) {
	fv.Set(sidLnTabDensity, lnDensity(surf.Tabs, length))
	fv.Set(sidLnSpaceDensity, lnDensity(surf.Spaces, length))
	fv.Set(sidLnEmptyLineDensity, lnDensity(surf.EmptyLines, length))
	nonWs := srcLen - surf.WSChars
	if nonWs > 0 {
		fv.Set(sidWhitespaceRatio, float64(surf.WSChars)/float64(nonWs))
	}
	if surf.TabLeadLines > surf.SpaceLeadLines {
		fv.Set(sidTabsLeadLines, 1)
	}

	// Dominant indentation unit: the smallest leading-space width that
	// occurs often (>= 20% of indented lines); buckets 2/4/8. Every
	// space-led line contributes exactly one indent width, so the old
	// sum over the width histogram equals SpaceLeadLines.
	if total := surf.SpaceLeadLines; total > 0 {
		widths := [4]int{surf.Indent2, surf.Indent3, surf.Indent4, surf.Indent8}
		units := [4]float64{2, 3, 4, 8}
		for i, c := range widths {
			if float64(c) >= 0.2*float64(total) {
				fv.Set(sidIndentUnit, units[i])
				break
			}
		}
	}

	// Brace placement: newline before '{' (Allman) vs same-line (K&R).
	if surf.BraceOwnLine > surf.BraceSameLine {
		fv.Set(sidNewlineBeforeBrace, 1)
	}
	fv.Set(sidBraceOwnLineRatio, ratio(surf.BraceOwnLine, surf.BraceOwnLine+surf.BraceSameLine))

	// Comment style: line vs block.
	fv.Set(sidLineCommentRatio, ratio(lineComments, lineComments+blockComments))

	// Operator spacing: fraction of '=' assignments written with
	// surrounding spaces, and of commas followed by a space.
	fv.Set(sidSpacedAssignRatio, ratio(surf.EqSpaced, surf.EqTotal))
	fv.Set(sidSpaceAfterComma, ratio(surf.CommaSpaced, surf.CommaTotal))
}
