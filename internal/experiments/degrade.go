package experiments

import (
	"fmt"

	"gptattr/internal/attrib"
	"gptattr/internal/stylometry"
)

// degradeUnit is one checkpointed ladder-level evaluation cell.
type degradeUnit struct {
	// MatchedCorrect scores the rung trained at the vector's level;
	// BaseCorrect scores the full (level-0) model on the same degraded
	// vector — the legacy-fallback path a ladderless deployment takes.
	MatchedCorrect int
	BaseCorrect    int
	Total          int
	// Calib is the matched rung's out-of-bag accuracy, the number the
	// server scales serving confidence by at this level.
	Calib float64
}

// ExtensionDegradeLadder measures what brownout serving costs in
// accuracy: one oracle rung per degrade level, all trained on the same
// corpus (exactly what `attr -save-ladder` ships), evaluated on
// out-of-sample renders extracted at that level. The matched-rung
// column is what a browned-out server answers; the base-model column
// is the legacy fallback (full model scoring a vector whose missing
// families read as zero), which the ladder exists to beat; the OOB
// column is the calibration the server reports alongside each answer.
func (s *Suite) ExtensionDegradeLadder() (string, error) {
	yd, err := s.Year(2017)
	if err != nil {
		return "", err
	}
	ladder, err := attrib.TrainOracleLadder(yd.Human, s.attribConfig())
	if err != nil {
		return "", fmt.Errorf("degradeladder: %w", err)
	}

	// Clean out-of-sample evaluation set (the k=0 ablation set).
	ev := s.semAblateEvalSet(yd, 0)
	sources := make([]string, len(ev.Samples))
	for i, sm := range ev.Samples {
		sources[i] = sm.Source
	}

	var rows [][]string
	for lvl := stylometry.DegradeNone; lvl <= stylometry.MaxDegrade; lvl++ {
		key := fmt.Sprintf("degradeladder:l%d", int(lvl))
		var u degradeUnit
		ok, err := s.lookupUnit(key, &u)
		if err != nil {
			return "", err
		}
		if !ok {
			vecs, _, err := stylometry.ExtractAll(sources, lvl,
				stylometry.ExtractConfig{Workers: s.workers()})
			if err != nil {
				return "", fmt.Errorf("degradeladder: level %v: %w", lvl, err)
			}
			for i, sp := range vecs {
				want := ev.Samples[i].Author
				if _, got := ladder[lvl].ProbaSparse(sp); got == want {
					u.MatchedCorrect++
				}
				if _, got := ladder[stylometry.DegradeNone].ProbaSparse(sp); got == want {
					u.BaseCorrect++
				}
				u.Total++
			}
			u.Calib = ladder[lvl].Calibration()
			if err := s.storeUnit(key, u); err != nil {
				return "", err
			}
		}
		if u.Total == 0 {
			rows = append(rows, []string{lvl.String(), "-", "-", "-"})
			continue
		}
		rows = append(rows, []string{
			lvl.String(),
			pct(float64(u.MatchedCorrect) / float64(u.Total)),
			pct(float64(u.BaseCorrect) / float64(u.Total)),
			pct(u.Calib),
		})
	}

	return renderTable(
		"Extension: degrade ladder — attribution accuracy (%) per brownout level",
		[]string{"Level", "Matched rung", "Base model", "Rung OOB"},
		rows,
		fmt.Sprintf("ladder trained as by `attr -save-ladder`; %d out-of-sample renders extracted at each\n"+
			"level; Base model = full oracle scoring the degraded vector (legacy fallback);\n"+
			"Rung OOB = the calibration X-Degrade-Level answers are scaled by", len(sources))), nil
}
