package attrib

import (
	"fmt"

	"gptattr/internal/corpus"
	"gptattr/internal/stylometry"
)

// OracleLadder holds one oracle per degrade level, all trained from
// one shared extraction pass over the same corpus: index 0 is the full
// model, index i is trained on the family subset surviving at degrade
// level i. Because the feature subsets are nested (see
// stylometry.DegradeLevel), a level-i oracle's vectorizer only indexes
// features present in every vector of level <= i — so it scores a
// degraded vector exactly as it scored its training data.
type OracleLadder [stylometry.DegradeLevels]*Oracle

// ClassifierLadder is the detector-side ladder, same construction.
type ClassifierLadder [stylometry.DegradeLevels]*Classifier

// TrainOracleLadder fits the full fallback ladder on one corpus with
// one extraction pass. Each rung also gets an out-of-bag calibration
// estimate so serving can report how much confidence a degraded
// answer deserves.
func TrainOracleLadder(human *corpus.Corpus, cfg Config) (*OracleLadder, error) {
	t, labels, err := oracleTask(human, cfg)
	if err != nil {
		return nil, err
	}
	var ladder OracleLadder
	for lvl := stylometry.DegradeNone; lvl <= stylometry.MaxDegrade; lvl++ {
		o := &Oracle{labels: labels}
		if err := o.fit(t, cfg, &lvl); err != nil {
			return nil, fmt.Errorf("attrib: ladder level %d training: %w", lvl, err)
		}
		ladder[lvl] = o
	}
	return &ladder, nil
}

// TrainBinaryLadder fits the ChatGPT-vs-human fallback ladder (label
// 1 = ChatGPT) on one shared extraction pass.
func TrainBinaryLadder(human, transformed *corpus.Corpus, cfg Config) (*ClassifierLadder, error) {
	t, err := detectorTask(human, transformed, cfg)
	if err != nil {
		return nil, err
	}
	var ladder ClassifierLadder
	for lvl := stylometry.DegradeNone; lvl <= stylometry.MaxDegrade; lvl++ {
		c := &Classifier{}
		if err := c.fit(t, cfg, &lvl); err != nil {
			return nil, fmt.Errorf("attrib: detector ladder level %d training: %w", lvl, err)
		}
		ladder[lvl] = c
	}
	return &ladder, nil
}
