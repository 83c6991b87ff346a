// Golden experiment tables: the rendered text of the experiment suite
// is pinned by hash against the seed (per-node re-sorting) training
// engine. The pre-sorted engine must reproduce every table byte-for-
// byte at every worker count; -update rewrites the goldens and is only
// legitimate when training semantics change on purpose.
package gptattr

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gptattr/internal/experiments"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from the current implementation")

// TestGoldenExperimentTables hashes the end-to-end tables (dataset
// build -> feature selection -> forest CV) at two worker counts
// against hashes recorded from the seed implementation.
func TestGoldenExperimentTables(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suite run is not short")
	}
	goldenPath := filepath.Join("testdata", "golden_tables.json")
	got := map[string]string{}
	pin := func(name, text string) {
		sum := sha256.Sum256([]byte(text))
		got[name] = hex.EncodeToString(sum[:])
	}
	for _, w := range []int{1, 2} {
		scale := determinismScale
		scale.Workers = w
		s := experiments.NewSuite(scale)
		for i, text := range suiteOutputs(t, s) {
			pin(fmt.Sprintf("workers=%d/output=%d", w, i), text)
		}
		// The two ablations that build their own training sets, at
		// quick scale.
		quick := experiments.QuickScale
		quick.Workers = w
		q := experiments.NewSuite(quick)
		for _, name := range []string{"features", "classifier"} {
			text, err := q.Ablations()[name]()
			if err != nil {
				t.Fatalf("ablation %s: %v", name, err)
			}
			pin(fmt.Sprintf("quick/workers=%d/ablation=%s", w, name), text)
		}
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("golden tables updated")
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run `go test . -run TestGoldenExperimentTables -update` to create): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("golden table set changed: %d entries, golden has %d", len(got), len(want))
	}
	for name, wantSum := range want {
		if got[name] != wantSum {
			t.Errorf("%s: experiment table diverged from seed implementation", name)
		}
	}
}
