package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"gptattr/internal/attrib"
	"gptattr/internal/corpus"
	"gptattr/internal/gpt"
	"gptattr/internal/stylometry"
)

// The serving tests share one trained oracle + detector, kept as saved
// bytes so each test can lay out its own model directory cheaply.
var (
	fixOnce     sync.Once
	fixErr      error
	oracleBytes []byte
	detBytes    []byte
	fixHuman    *corpus.Corpus
	fixGPT      *corpus.Corpus
)

func trainModels() {
	cfg := attrib.Config{Trees: 10, TopFeatures: 150, Seed: 42}
	human, _, err := corpus.GenerateYear(corpus.YearConfig{Year: 2017, NumAuthors: 6, Seed: 1})
	if err != nil {
		fixErr = err
		return
	}
	model := gpt.NewModel(gpt.Config{Seed: 2, NumStyles: 4})
	transformed, err := corpus.GenerateTransformed(corpus.TransformedConfig{
		Year: 2017, Rounds: 2, Model: model, Seed: 3, SkipVerify: true,
	})
	if err != nil {
		fixErr = err
		return
	}
	oracle, err := attrib.TrainOracle(human, cfg)
	if err != nil {
		fixErr = err
		return
	}
	det, err := attrib.TrainBinary(human, transformed, cfg)
	if err != nil {
		fixErr = err
		return
	}
	var ob, db bytes.Buffer
	if err := oracle.Save(&ob); err != nil {
		fixErr = err
		return
	}
	if err := det.Save(&db); err != nil {
		fixErr = err
		return
	}
	oracleBytes, detBytes = ob.Bytes(), db.Bytes()
	fixHuman, fixGPT = human, transformed
}

// modelDir writes the shared trained models into a fresh directory.
func modelDir(t *testing.T) string {
	t.Helper()
	fixOnce.Do(trainModels)
	if fixErr != nil {
		t.Fatalf("training fixture models: %v", fixErr)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, OracleFile), oracleBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, DetectorFile), detBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// sampleSource returns the i-th human training source (valid C++).
func sampleSource(t *testing.T, i int) string {
	t.Helper()
	fixOnce.Do(trainModels)
	if fixErr != nil {
		t.Fatalf("training fixture models: %v", fixErr)
	}
	return fixHuman.Samples[i%len(fixHuman.Samples)].Source
}

// The ladder fixture: one oracle + detector rung per degrade level,
// trained lazily (they cost six extra small forests) and shared.
var (
	ladOnce        sync.Once
	ladErr         error
	ladOracleBytes [stylometry.DegradeLevels][]byte
	ladDetBytes    [stylometry.DegradeLevels][]byte
)

func trainLadders() {
	fixOnce.Do(trainModels)
	if fixErr != nil {
		ladErr = fixErr
		return
	}
	cfg := attrib.Config{Trees: 10, TopFeatures: 150, Seed: 42}
	ol, err := attrib.TrainOracleLadder(fixHuman, cfg)
	if err != nil {
		ladErr = err
		return
	}
	dl, err := attrib.TrainBinaryLadder(fixHuman, fixGPT, cfg)
	if err != nil {
		ladErr = err
		return
	}
	for lvl := stylometry.DegradeNone; lvl <= stylometry.MaxDegrade; lvl++ {
		var ob, db bytes.Buffer
		if err := ol[lvl].Save(&ob); err != nil {
			ladErr = err
			return
		}
		if err := dl[lvl].Save(&db); err != nil {
			ladErr = err
			return
		}
		ladOracleBytes[lvl], ladDetBytes[lvl] = ob.Bytes(), db.Bytes()
	}
}

// ladderDir writes the full degrade ladder (all rungs of both models)
// into a fresh model directory.
func ladderDir(t testing.TB) string {
	t.Helper()
	ladOnce.Do(trainLadders)
	if ladErr != nil {
		t.Fatalf("training fixture ladders: %v", ladErr)
	}
	dir := t.TempDir()
	for lvl := stylometry.DegradeNone; lvl <= stylometry.MaxDegrade; lvl++ {
		if err := os.WriteFile(filepath.Join(dir, ladderFile(OracleFile, lvl)), ladOracleBytes[lvl], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ladderFile(DetectorFile, lvl)), ladDetBytes[lvl], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}
