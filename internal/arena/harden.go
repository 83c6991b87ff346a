package arena

import (
	"context"
	"fmt"
	"sort"

	"gptattr/internal/attrib"
	"gptattr/internal/corpus"
	"gptattr/internal/stylometry"
)

// EvadingSample is one verified evasion to fold back into training:
// the gate-verified variant paired with the author it was written by.
type EvadingSample struct {
	Source     string
	TrueAuthor string
}

// HardenChallenge labels adversarial training samples in the
// augmented corpus, so they are distinguishable (and group together
// under challenge-wise cross-validation).
const HardenChallenge = "ADV"

// Harden is the defense half of the closed loop: adversarial
// retraining. Verified evading variants are appended to the human
// training corpus under their TRUE author labels — teaching the
// forest that the rewritten style is still that author — and a fresh
// oracle is fit through the pre-sorted training engine. It returns the
// hardened oracle and the augmented corpus (the input corpus is not
// modified).
func Harden(human *corpus.Corpus, evasions []EvadingSample, cfg attrib.Config) (*attrib.Oracle, *corpus.Corpus, error) {
	if len(evasions) == 0 {
		return nil, nil, fmt.Errorf("arena: no evading samples to harden on")
	}
	adv := &corpus.Corpus{Samples: make([]corpus.Sample, len(evasions))}
	for i, ev := range evasions {
		if ev.TrueAuthor == "" {
			return nil, nil, fmt.Errorf("arena: evading sample %d has no author", i)
		}
		adv.Samples[i] = corpus.Sample{
			Source:    ev.Source,
			Author:    ev.TrueAuthor,
			Challenge: HardenChallenge,
		}
	}
	augmented := corpus.Merge(human, adv)
	oracle, err := attrib.TrainOracle(augmented, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("arena: hardening retrain: %w", err)
	}
	return oracle, augmented, nil
}

// SourcePair is one original/evaded pair for the robustness ranking.
type SourcePair struct {
	Original string
	Evaded   string
}

// FeatureShift scores how much the attacks moved one stylometry
// feature.
type FeatureShift struct {
	// Name is the feature column.
	Name string
	// MeanAbsDelta is the mean |evaded − original| of the feature's
	// value across all pairs.
	MeanAbsDelta float64
	// Moved counts pairs in which the feature changed at all.
	Moved int
}

// pairShifts is the shared core of the robustness rankings: it learns
// a vectorizer over all involved sources (MinDocFreq 1, so attack-only
// features are visible), vectorizes each original/evaded pair, and
// accumulates per-column absolute shifts and moved-pair counts.
func pairShifts(pairs []SourcePair) (names []string, sumAbs []float64, moved []int, err error) {
	if len(pairs) == 0 {
		return nil, nil, nil, fmt.Errorf("arena: no pairs to rank")
	}
	docs := make([]*stylometry.Sparse, 0, 2*len(pairs))
	ctx := context.Background()
	for i, p := range pairs {
		of, _, err := stylometry.ExtractSupervised(ctx, p.Original, stylometry.DegradeNone, nil)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("arena: extracting original %d: %w", i, err)
		}
		ef, _, err := stylometry.ExtractSupervised(ctx, p.Evaded, stylometry.DegradeNone, nil)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("arena: extracting evaded %d: %w", i, err)
		}
		docs = append(docs, of, ef)
	}
	vec := stylometry.NewVectorizer(docs, stylometry.VectorizerConfig{MinDocFreq: 1})
	names = vec.FeatureNames()
	sumAbs = make([]float64, len(names))
	moved = make([]int, len(names))
	orow, erow := make([]float64, len(names)), make([]float64, len(names))
	for i := 0; i < len(docs); i += 2 {
		vec.VectorIntoSparse(docs[i], orow)
		vec.VectorIntoSparse(docs[i+1], erow)
		for c := range names {
			d := erow[c] - orow[c]
			if d < 0 {
				d = -d
			}
			if d > 0 {
				sumAbs[c] += d
				moved[c]++
			}
		}
	}
	return names, sumAbs, moved, nil
}

// RankFeatureShifts is the feature-robustness ranking: which
// stylometry features the evasion attacks exploit most, ranked by
// mean absolute shift across pairs. topN bounds the returned ranking
// (0 = all).
func RankFeatureShifts(pairs []SourcePair, topN int) ([]FeatureShift, error) {
	names, sumAbs, moved, err := pairShifts(pairs)
	if err != nil {
		return nil, err
	}
	out := make([]FeatureShift, 0, len(names))
	for c, name := range names {
		if moved[c] == 0 {
			continue
		}
		out = append(out, FeatureShift{
			Name:         name,
			MeanAbsDelta: sumAbs[c] / float64(len(pairs)),
			Moved:        moved[c],
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].MeanAbsDelta != out[j].MeanAbsDelta {
			return out[i].MeanAbsDelta > out[j].MeanAbsDelta
		}
		return out[i].Name < out[j].Name
	})
	if topN > 0 && len(out) > topN {
		out = out[:topN]
	}
	return out, nil
}

// GroupShift aggregates attack-induced feature movement over one
// feature family — the per-group robustness view: a family whose
// features barely move under attack is a family the attacks cannot
// reach.
type GroupShift struct {
	// Family is the stylometry feature family.
	Family stylometry.FeatureFamily
	// Features counts the family's columns in the learned vocabulary.
	Features int
	// MovedFeatures counts columns that changed in at least one pair.
	MovedFeatures int
	// TotalAbsDelta sums the per-feature mean absolute shifts.
	TotalAbsDelta float64
	// MeanAbsDelta is TotalAbsDelta normalized by the family's column
	// count: average movement per feature, comparable across families
	// of very different sizes.
	MeanAbsDelta float64
}

// GroupShifts aggregates RankFeatureShifts' per-column view into one
// row per feature family, in family declaration order. Families with
// no features in the vocabulary are still reported (all-zero rows), so
// tables stay aligned across runs.
func GroupShifts(pairs []SourcePair) ([]GroupShift, error) {
	names, sumAbs, moved, err := pairShifts(pairs)
	if err != nil {
		return nil, err
	}
	byFam := make(map[stylometry.FeatureFamily]*GroupShift, len(stylometry.AllFamilies))
	out := make([]GroupShift, len(stylometry.AllFamilies))
	for i, fam := range stylometry.AllFamilies {
		out[i].Family = fam
		byFam[fam] = &out[i]
	}
	for c, name := range names {
		g, ok := byFam[stylometry.Family(name)]
		if !ok {
			continue
		}
		g.Features++
		if moved[c] > 0 {
			g.MovedFeatures++
			g.TotalAbsDelta += sumAbs[c] / float64(len(pairs))
		}
	}
	for i := range out {
		if out[i].Features > 0 {
			out[i].MeanAbsDelta = out[i].TotalAbsDelta / float64(out[i].Features)
		}
	}
	return out, nil
}
