package ml

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"gptattr/internal/jsonscan"
)

// scanAll reads data as a model file's forest line: Encode's bytes,
// with at most their one trailing newline after them.
func scanAll(data []byte) (*Forest, error) {
	c := jsonscan.NewCursor(data)
	f, err := ScanForest(&c)
	if err != nil {
		return nil, err
	}
	c.Opt("\n")
	c.End()
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("ml: decode forest: %w", err)
	}
	return f, nil
}

// decodeForestRef is the frozen encoding/json forest reader that
// ScanForest replaced, kept as the reference FuzzDecodeForest compares
// the scanner with: the DTO through json.Decoder, then the same checks.
func decodeForestRef(r io.Reader) (*Forest, error) {
	var dto forestDTO
	if err := json.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("ml: decode forest: %w", err)
	}
	if err := checkForest(dto.NumClasses, len(dto.Trees)); err != nil {
		return nil, err
	}
	f := &Forest{numClasses: dto.NumClasses}
	for ti, td := range dto.Trees {
		n := len(td.Feature)
		if n > 0 && (len(td.Threshold) != n || len(td.Left) != n || len(td.Right) != n || len(td.Class) != n) {
			return nil, fmt.Errorf("ml: tree %d has inconsistent node arrays", ti)
		}
		nodes := make([]treeNode, n)
		for i := range nodes {
			nodes[i] = treeNode{
				feature:   td.Feature[i],
				threshold: td.Threshold[i],
				left:      td.Left[i],
				right:     td.Right[i],
				class:     td.Class[i],
			}
		}
		if err := checkTree(ti, nodes, dto.NumClasses); err != nil {
			return nil, err
		}
		f.trees = append(f.trees, &Tree{numClasses: dto.NumClasses, nodes: nodes})
	}
	return f, nil
}

func TestForestEncodeDecodeRoundTrip(t *testing.T) {
	d := blobs(4, 25, 5, 1.0, 31)
	f, err := FitForest(d, ForestConfig{NumTrees: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	g, err := scanAll(buf.Bytes())
	if err != nil {
		t.Fatalf("ScanForest: %v", err)
	}
	if g.NumTrees() != f.NumTrees() {
		t.Fatalf("trees = %d, want %d", g.NumTrees(), f.NumTrees())
	}
	pa, pb := make([]float64, f.NumClasses()), make([]float64, g.NumClasses())
	for i, x := range d.X {
		if f.Predict(x) != g.Predict(x) {
			t.Fatalf("sample %d: prediction diverged after round trip", i)
		}
		f.PredictProbaInto(x, pa)
		g.PredictProbaInto(x, pb)
		for c := range pa {
			if pa[c] != pb[c] {
				t.Fatalf("sample %d class %d: proba diverged", i, c)
			}
		}
	}
}

// rejects checks that ScanForest refuses data with an error that
// holds want, the message of the rule the input breaks.
func rejects(t *testing.T, data, want string) {
	t.Helper()
	g, err := scanAll([]byte(data))
	if err == nil || g != nil {
		t.Fatalf("accepted %s", data)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want one that holds %q", err, want)
	}
}

func TestDecodeForestRejectsGarbage(t *testing.T) {
	tests := []struct {
		name string
		data string
		want string
	}{
		{"not json", "hello", "ml: decode forest: malformed at byte 0"},
		{"no classes", `{"num_classes":0,"trees":[]}`, "decoded forest has 0 classes"},
		{"no trees", `{"num_classes":3,"trees":[]}`, "no trees"},
		{"ragged arrays", `{"num_classes":2,"trees":[{"feature":[0],"threshold":[],"left":[],"right":[],"class":[]}]}`, "tree 0 has inconsistent node arrays"},
		{"bad child index", `{"num_classes":2,"trees":[{"feature":[0],"threshold":[1.0],"left":[5],"right":[0],"class":[0]}]}`, "tree 0 node 0 has out-of-range children"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) { rejects(t, tt.data, tt.want) })
	}
}
