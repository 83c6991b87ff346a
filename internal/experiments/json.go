package experiments

import (
	"encoding/json"
	"fmt"
	"io"
)

// Results is the machine-readable form of the reproduction: the
// structured data behind Tables IV and VIII-X, for downstream plotting
// or regression tracking.
type Results struct {
	Scale Scale `json:"scale"`
	// StyleCounts mirrors Table IV: year -> challenge -> setting ->
	// distinct labels.
	StyleCounts map[int]map[string]map[string]int `json:"style_counts"`
	// StyleAverages mirrors Table IV's A row.
	StyleAverages map[int]map[string]float64 `json:"style_averages"`
	// MaxStyles is the paper's headline bound.
	MaxStyles int `json:"max_styles"`
	// Diversity mirrors Tables V-VII: year -> ranked label shares.
	Diversity map[int][]LabelShareJSON `json:"diversity"`
	// Naive and FeatureBased mirror Tables VIII-IX.
	Naive        map[int]AttributionJSON `json:"naive"`
	FeatureBased map[int]AttributionJSON `json:"feature_based"`
	// Binary mirrors Table X; year -1 is the combined dataset.
	Binary map[int]BinaryJSON `json:"binary"`
}

// LabelShareJSON is one diversity histogram row.
type LabelShareJSON struct {
	Label       string  `json:"label"`
	Occurrences int     `json:"occurrences"`
	Percentage  float64 `json:"percentage"`
}

// AttributionJSON is one year's 205-author experiment.
type AttributionJSON struct {
	MeanAccuracy float64   `json:"mean_accuracy"`
	ChatGPTRate  float64   `json:"chatgpt_rate"`
	TargetRate   float64   `json:"target_rate,omitempty"`
	TargetLabel  string    `json:"target_label,omitempty"`
	SetSize      int       `json:"set_size"`
	FoldAccuracy []float64 `json:"fold_accuracy"`
}

// BinaryJSON is one Table X dataset.
type BinaryJSON struct {
	MeanAccuracy float64   `json:"mean_accuracy"`
	FoldAccuracy []float64 `json:"fold_accuracy"`
	HumanSamples int       `json:"human_samples"`
	GPTSamples   int       `json:"gpt_samples"`
}

// Results assembles the structured reproduction results (runs all
// underlying experiments).
func (s *Suite) Results() (*Results, error) {
	res := &Results{
		Scale:         s.scale,
		StyleCounts:   make(map[int]map[string]map[string]int),
		StyleAverages: make(map[int]map[string]float64),
		Diversity:     make(map[int][]LabelShareJSON),
		Naive:         make(map[int]AttributionJSON),
		FeatureBased:  make(map[int]AttributionJSON),
		Binary:        make(map[int]BinaryJSON),
	}
	tiv, err := s.TableIVData()
	if err != nil {
		return nil, err
	}
	res.MaxStyles = tiv.Max
	for y, byCh := range tiv.Counts {
		res.StyleCounts[y] = make(map[string]map[string]int)
		for ch, bySet := range byCh {
			res.StyleCounts[y][ch] = make(map[string]int)
			for set, n := range bySet {
				res.StyleCounts[y][ch][string(set)] = n
			}
		}
	}
	for y, bySet := range tiv.Averages {
		res.StyleAverages[y] = make(map[string]float64)
		for set, a := range bySet {
			res.StyleAverages[y][string(set)] = a
		}
	}
	for _, y := range Years() {
		yd, err := s.Year(y)
		if err != nil {
			return nil, err
		}
		for _, l := range yd.Stats.TopLabels(2) {
			res.Diversity[y] = append(res.Diversity[y], LabelShareJSON(l))
		}
	}
	naive, err := s.TableVIIIData()
	if err != nil {
		return nil, err
	}
	fb, err := s.TableIXData()
	if err != nil {
		return nil, err
	}
	for _, rows := range [][]AttributionRow{naive, fb} {
		for _, row := range rows {
			a := AttributionJSON{
				MeanAccuracy: row.Result.MeanAccuracy,
				ChatGPTRate:  row.Result.ChatGPTRate,
				TargetRate:   row.Result.TargetRate,
				TargetLabel:  row.Result.TargetLabel,
				SetSize:      row.Result.SetSize,
			}
			for _, f := range row.Result.Folds {
				a.FoldAccuracy = append(a.FoldAccuracy, f.Accuracy)
			}
			if row.Result.TargetLabel == "" {
				res.Naive[row.Year] = a
			} else {
				res.FeatureBased[row.Year] = a
			}
		}
	}
	binData, err := s.TableXData()
	if err != nil {
		return nil, err
	}
	for _, d := range binData {
		b := BinaryJSON{
			MeanAccuracy: d.Result.MeanAccuracy,
			HumanSamples: d.Result.HumanSamples,
			GPTSamples:   d.Result.GPTSamples,
		}
		for _, f := range d.Result.Folds {
			b.FoldAccuracy = append(b.FoldAccuracy, f.Accuracy)
		}
		res.Binary[d.Year] = b
	}
	return res, nil
}

// WriteJSON runs the full suite and streams the structured results as
// indented JSON.
func (s *Suite) WriteJSON(w io.Writer) error {
	res, err := s.Results()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return fmt.Errorf("experiments: encode results: %w", err)
	}
	return nil
}
