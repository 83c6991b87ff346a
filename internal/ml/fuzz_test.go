package ml

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzDecodeForest feeds arbitrary and truncated bytes through
// ScanForest. It must return an error or a forest that predicts
// without panicking — never an index-out-of-range, an infinite Predict
// walk, or an allocation driven by hostile declared counts. Serving
// loads models from disk state it does not control, so this is the
// trust boundary. Whatever the scanner accepts, the frozen
// encoding/json reader decodes to the same forest.
func FuzzDecodeForest(f *testing.F) {
	// A genuine encoding plus truncations of it.
	d := blobs(3, 20, 4, 1.0, 17)
	forest, err := FitForest(d, ForestConfig{NumTrees: 5, Seed: 9})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := forest.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	if _, err := scanAll(valid); err != nil {
		f.Fatalf("an encoded forest is rejected: %v", err)
	}
	f.Add(valid)
	f.Add(bytes.Replace(valid, []byte(`,"trees":`), []byte(`, "trees":`), 1))
	f.Add(append(append([]byte(nil), valid...), "trailing"...))
	for _, cut := range []int{1, len(valid) / 2, len(valid) - 2} {
		f.Add(valid[:cut])
	}
	f.Add([]byte(""))
	f.Add([]byte("{}"))
	f.Add([]byte(`{"num_classes":1000000000,"trees":[]}`))
	f.Add([]byte(`{"num_classes":2,"trees":[{"feature":[0],"threshold":[0.5],"left":[0],"right":[0],"class":[0]}]}`))
	f.Add([]byte(`{"num_classes":2,"trees":[{"feature":[-1],"threshold":[0],"left":[0],"right":[0],"class":[9]}]}`))
	f.Add([]byte(`{"num_classes":2,"trees":[{"feature":[],"threshold":[],"left":[],"right":[],"class":[]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := scanAll(data)
		if err != nil {
			if g != nil {
				t.Fatal("ScanForest returned both a forest and an error")
			}
			return
		}
		ref, refErr := decodeForestRef(bytes.NewReader(data))
		if refErr != nil {
			t.Fatalf("ScanForest accepted what the encoding/json reader rejects: %v", refErr)
		}
		var a, b bytes.Buffer
		if err := g.Encode(&a); err != nil {
			t.Fatal(err)
		}
		if err := ref.Encode(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("ScanForest and encoding/json decode different forests:\n%s\n%s", a.Bytes(), b.Bytes())
		}
		// A scanned forest must be safe to use: every declared invariant
		// was validated, so prediction over a wide-enough vector cannot
		// panic and must finish.
		x := make([]float64, g.MaxFeature()+1)
		class := g.Predict(x)
		if class < 0 || class >= g.NumClasses() {
			t.Fatalf("predicted class %d outside %d classes", class, g.NumClasses())
		}
		proba := make([]float64, g.NumClasses())
		g.PredictProbaInto(x, proba)
		if proba[class] == 0 {
			t.Fatalf("predicted class %d has no votes: %v", class, proba)
		}
	})
}

// TestDecodeForestHardening pins the specific rejections the fuzzer
// relies on, each by its rule's message, so a refactor cannot silently
// drop one.
func TestDecodeForestHardening(t *testing.T) {
	tests := []struct {
		name string
		data string
		want string
	}{
		{"class count over cap", `{"num_classes":1000000000,"trees":[{"feature":[-1],"threshold":[0],"left":[0],"right":[0],"class":[0]}]}`, "decoded forest has 1000000000 classes"},
		{"empty tree", `{"num_classes":2,"trees":[{"feature":[],"threshold":[],"left":[],"right":[],"class":[]}]}`, "tree 0 is empty"},
		{"class outside range", `{"num_classes":2,"trees":[{"feature":[-1],"threshold":[0],"left":[0],"right":[0],"class":[2]}]}`, "class 2 outside 2 classes"},
		{"negative class", `{"num_classes":2,"trees":[{"feature":[-1],"threshold":[0],"left":[0],"right":[0],"class":[-1]}]}`, "class -1 outside 2 classes"},
		{"self-loop child", `{"num_classes":2,"trees":[{"feature":[0],"threshold":[0.5],"left":[0],"right":[0],"class":[0]}]}`, "tree 0 node 0 has out-of-range children"},
		{"backward child", `{"num_classes":2,"trees":[{"feature":[-1,0],"threshold":[0,0.5],"left":[0,0],"right":[0,0],"class":[0,0]}]}`, "tree 0 node 1 has out-of-range children"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) { rejects(t, tt.data, tt.want) })
	}
}

// FuzzFitTree drives tree induction over adversarially-shaped
// datasets: constant columns, duplicated rows, single-class labels,
// NaN-free but tie-heavy value grids, minLeaf larger than the node.
// The invariants: FitTree never panics, a fitted tree predicts a class
// in range for every training row, and exact mode is insensitive to
// how many duplicate low-cardinality columns surround the signal.
func FuzzFitTree(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(3), uint8(2), uint8(1))
	f.Add(int64(2), uint8(1), uint8(1), uint8(1), uint8(1))   // single row
	f.Add(int64(3), uint8(40), uint8(4), uint8(1), uint8(9))  // single class, minLeaf 9
	f.Add(int64(4), uint8(30), uint8(2), uint8(3), uint8(50)) // minLeaf > n
	f.Add(int64(5), uint8(64), uint8(6), uint8(4), uint8(2))  // wider, multi-class
	f.Fuzz(func(t *testing.T, seed int64, n8, feats8, classes8, minLeaf8 uint8) {
		n := int(n8%64) + 1
		feats := int(feats8%8) + 1
		classes := int(classes8%5) + 1
		rng := rand.New(rand.NewSource(seed))
		d := &Dataset{X: make([][]float64, n), Y: make([]int, n), NumClasses: classes}
		for i := range d.X {
			row := make([]float64, feats)
			for j := range row {
				switch j % 3 {
				case 0: // low-cardinality / constant-ish column
					row[j] = float64(rng.Intn(2))
				case 1: // tie-heavy quantized grid
					row[j] = float64(rng.Intn(5)) * 0.25
				default: // continuous
					row[j] = rng.NormFloat64()
				}
			}
			d.X[i] = row
			d.Y[i] = rng.Intn(classes)
		}
		// Duplicate some rows exactly (bootstrap-style ties).
		for i := 1; i < n; i += 3 {
			d.X[i] = d.X[i-1]
		}
		cfg := TreeConfig{
			MaxDepth:       int(seed % 7), // 0 = unbounded
			MinSamplesLeaf: int(minLeaf8),
			MTry:           feats / 2,
		}
		tree, err := FitTree(d, nil, cfg, rand.New(rand.NewSource(seed+1)))
		if err != nil {
			t.Fatalf("FitTree: %v", err) // any valid dataset must fit
		}
		for i, row := range d.X {
			if c := tree.Predict(row); c < 0 || c >= classes {
				t.Fatalf("Predict(row %d) = %d, want in [0,%d)", i, c, classes)
			}
		}
		if tree.Depth() < 0 || tree.NumNodes() < 1 {
			t.Fatalf("degenerate tree shape: depth %d, nodes %d", tree.Depth(), tree.NumNodes())
		}
	})
}
