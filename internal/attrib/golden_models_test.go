package attrib

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gptattr/internal/corpus"
	"gptattr/internal/gpt"
)

// The golden model-bytes test pins the exact on-disk bytes of every
// trainer's output (both ladders plus the plain TrainOracle and
// TrainBinary) as SHA-256 digests. A refactor of the fit, reduce or
// persist code must keep them byte-identical; -update rewrites the
// digests and is only for deliberate format or pipeline changes:
//
//	go test ./internal/attrib -run TestGoldenModelBytes -update
var updateModels = flag.Bool("update", false, "rewrite testdata/golden_models.txt from the current implementation")

const goldenModelsPath = "testdata/golden_models.txt"

// savedModel is one trained model under a stable name, with the loader
// that reads its saved form back.
type savedModel struct {
	name string
	save func(io.Writer) error
	load func(io.Reader) (func(io.Writer) error, error)
}

func loadOracleSaver(r io.Reader) (func(io.Writer) error, error) {
	o, err := LoadOracle(r)
	if err != nil {
		return nil, err
	}
	return o.Save, nil
}

func loadClassifierSaver(r io.Reader) (func(io.Writer) error, error) {
	c, err := LoadClassifier(r)
	if err != nil {
		return nil, err
	}
	return c.Save, nil
}

// goldenModels trains every model kind on a small seeded corpus.
func goldenModels(t testing.TB) []savedModel {
	t.Helper()
	human, _, err := corpus.GenerateYear(corpus.YearConfig{Year: 2017, NumAuthors: 6, Seed: 11})
	if err != nil {
		t.Fatalf("GenerateYear: %v", err)
	}
	transformed, err := corpus.GenerateTransformed(corpus.TransformedConfig{
		Year: 2017, Rounds: 2, Model: gpt.NewModel(gpt.Config{Seed: 12, NumStyles: 4}),
		Seed: 13, SkipVerify: true,
	})
	if err != nil {
		t.Fatalf("GenerateTransformed: %v", err)
	}
	cfg := Config{Trees: 8, TopFeatures: 120, Seed: 42, Workers: 2}

	oracles, err := TrainOracleLadder(human, cfg)
	if err != nil {
		t.Fatalf("TrainOracleLadder: %v", err)
	}
	detectors, err := TrainBinaryLadder(human, transformed, cfg)
	if err != nil {
		t.Fatalf("TrainBinaryLadder: %v", err)
	}
	oracle, err := TrainOracle(human, cfg)
	if err != nil {
		t.Fatalf("TrainOracle: %v", err)
	}
	detector, err := TrainBinary(human, transformed, cfg)
	if err != nil {
		t.Fatalf("TrainBinary: %v", err)
	}

	var out []savedModel
	for lvl, o := range oracles {
		out = append(out, savedModel{fmt.Sprintf("oracle.l%d", lvl), o.Save, loadOracleSaver})
	}
	for lvl, c := range detectors {
		out = append(out, savedModel{fmt.Sprintf("detector.l%d", lvl), c.Save, loadClassifierSaver})
	}
	return append(out,
		savedModel{"oracle.plain", oracle.Save, loadOracleSaver},
		savedModel{"detector.plain", detector.Save, loadClassifierSaver})
}

func TestGoldenModelBytes(t *testing.T) {
	var got strings.Builder
	for _, m := range goldenModels(t) {
		var first bytes.Buffer
		if err := m.save(&first); err != nil {
			t.Fatalf("%s: Save: %v", m.name, err)
		}
		save, err := m.load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("%s: Load: %v", m.name, err)
		}
		var second bytes.Buffer
		if err := save(&second); err != nil {
			t.Fatalf("%s: re-Save: %v", m.name, err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("%s: Save → Load → Save changed the bytes (%d vs %d)", m.name, first.Len(), second.Len())
		}
		sum := sha256.Sum256(first.Bytes())
		fmt.Fprintf(&got, "%s %s\n", m.name, hex.EncodeToString(sum[:]))
	}

	if *updateModels {
		if err := os.MkdirAll(filepath.Dir(goldenModelsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenModelsPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("golden model digests updated")
		return
	}
	f, err := os.Open(goldenModelsPath)
	if err != nil {
		t.Fatalf("read golden (run `go test ./internal/attrib -run TestGoldenModelBytes -update` to create): %v", err)
	}
	defer func() { _ = f.Close() }()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(got.String()), "\n")
	if len(lines) != len(want) {
		t.Errorf("trained %d models, golden file has %d", len(lines), len(want))
	}
	for _, line := range lines {
		name, sum, _ := strings.Cut(line, " ")
		if want[name] != sum {
			t.Errorf("%s: saved bytes sha256 %s, golden %s", name, sum, want[name])
		}
	}
}
