package attrib

import (
	"sort"

	"gptattr/internal/corpus"
	"gptattr/internal/stylometry"
)

// StyleStats reports the oracle's view of a transformed corpus: which
// author labels it assigns, per challenge and setting (Table IV), and
// how often each label occurs overall (Tables V-VII).
type StyleStats struct {
	// Predictions holds the oracle label for every sample, parallel to
	// the corpus.
	Predictions []string
	// CountsByChallenge[challenge][setting] is the number of distinct
	// labels (Table IV cells).
	CountsByChallenge map[string]map[corpus.Setting]int
	// Histogram counts label occurrences over the whole corpus
	// (Tables V-VII).
	Histogram map[string]int
}

// AnalyzeStyles predicts labels for the transformed corpus and derives
// the style-count and diversity statistics.
func AnalyzeStyles(o *Oracle, transformed *corpus.Corpus, feats []*stylometry.Sparse) (*StyleStats, error) {
	preds, err := o.PredictCorpus(transformed, feats)
	if err != nil {
		return nil, err
	}
	st := &StyleStats{
		Predictions:       preds,
		CountsByChallenge: make(map[string]map[corpus.Setting]int),
		Histogram:         make(map[string]int),
	}
	distinct := make(map[string]map[corpus.Setting]map[string]bool)
	for i, s := range transformed.Samples {
		label := preds[i]
		st.Histogram[label]++
		if distinct[s.Challenge] == nil {
			distinct[s.Challenge] = make(map[corpus.Setting]map[string]bool)
		}
		if distinct[s.Challenge][s.Setting] == nil {
			distinct[s.Challenge][s.Setting] = make(map[string]bool)
		}
		distinct[s.Challenge][s.Setting][label] = true
	}
	for ch, bySetting := range distinct {
		st.CountsByChallenge[ch] = make(map[corpus.Setting]int)
		for set, labels := range bySetting {
			st.CountsByChallenge[ch][set] = len(labels)
		}
	}
	return st, nil
}

// AverageStyleCount returns the mean distinct-label count for one
// setting across challenges (a Table IV "A" row cell).
func (st *StyleStats) AverageStyleCount(setting corpus.Setting) float64 {
	total, n := 0, 0
	for _, bySetting := range st.CountsByChallenge {
		if c, ok := bySetting[setting]; ok {
			total += c
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// MaxStyleCount returns the largest distinct-label count across all
// cells (the paper's "maximum of 12 styles" observation).
func (st *StyleStats) MaxStyleCount() int {
	max := 0
	for _, bySetting := range st.CountsByChallenge {
		for _, c := range bySetting {
			if c > max {
				max = c
			}
		}
	}
	return max
}

// LabelShare is a histogram row: a label with its occurrence count and
// share of the corpus.
type LabelShare struct {
	Label       string
	Occurrences int
	Percentage  float64
}

// TopLabels returns histogram rows sorted by occurrences descending,
// dropping labels with fewer than minOccurrences (the tables filter
// labels occurring fewer than two times).
func (st *StyleStats) TopLabels(minOccurrences int) []LabelShare {
	total := 0
	for _, c := range st.Histogram {
		total += c
	}
	var out []LabelShare
	for label, c := range st.Histogram {
		if c < minOccurrences {
			continue
		}
		out = append(out, LabelShare{
			Label:       label,
			Occurrences: c,
			Percentage:  100 * float64(c) / float64(total),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Occurrences != out[j].Occurrences {
			return out[i].Occurrences > out[j].Occurrences
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// DominantLabel returns the most frequent label and its share.
func (st *StyleStats) DominantLabel() (string, float64) {
	top := st.TopLabels(1)
	if len(top) == 0 {
		return "", 0
	}
	return top[0].Label, top[0].Percentage
}
