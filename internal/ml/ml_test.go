package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// blobs builds an easily separable synthetic dataset: numClasses
// Gaussian clusters in nf dimensions, n samples per class.
func blobs(numClasses, nPerClass, nf int, noise float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{NumClasses: numClasses}
	for c := 0; c < numClasses; c++ {
		center := make([]float64, nf)
		for j := range center {
			center[j] = float64((c+1)*(j+3)%7) * 2.0
		}
		for i := 0; i < nPerClass; i++ {
			row := make([]float64, nf)
			for j := range row {
				row[j] = center[j] + rng.NormFloat64()*noise
			}
			d.X = append(d.X, row)
			d.Y = append(d.Y, c)
		}
	}
	return d
}

func TestDatasetValidate(t *testing.T) {
	tests := []struct {
		name string
		d    *Dataset
		ok   bool
	}{
		{"valid", &Dataset{X: [][]float64{{1}, {2}}, Y: []int{0, 1}, NumClasses: 2}, true},
		{"empty", &Dataset{NumClasses: 1}, false},
		{"label mismatch", &Dataset{X: [][]float64{{1}}, Y: []int{0, 1}, NumClasses: 2}, false},
		{"ragged rows", &Dataset{X: [][]float64{{1}, {2, 3}}, Y: []int{0, 0}, NumClasses: 1}, false},
		{"label out of range", &Dataset{X: [][]float64{{1}}, Y: []int{5}, NumClasses: 2}, false},
		{"bad groups", &Dataset{X: [][]float64{{1}}, Y: []int{0}, Groups: []int{1, 2}, NumClasses: 1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.d.Validate()
			if (err == nil) != tt.ok {
				t.Errorf("Validate() err = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestTreeFitsSimpleSplit(t *testing.T) {
	// One informative feature: class = x[0] > 5.
	d := &Dataset{NumClasses: 2}
	for i := 0; i < 20; i++ {
		v := float64(i)
		d.X = append(d.X, []float64{v, 0})
		y := 0
		if v > 5 {
			y = 1
		}
		d.Y = append(d.Y, y)
	}
	tree, err := FitTree(d, nil, TreeConfig{}, nil)
	if err != nil {
		t.Fatalf("FitTree: %v", err)
	}
	for i, x := range d.X {
		if got := tree.Predict(x); got != d.Y[i] {
			t.Errorf("Predict(%v) = %d, want %d", x, got, d.Y[i])
		}
	}
	if tree.Depth() != 1 {
		t.Errorf("tree depth = %d, want 1 (single split)", tree.Depth())
	}
}

func TestTreeXor(t *testing.T) {
	// XOR needs depth 2; unbounded CART must solve it exactly.
	d := &Dataset{NumClasses: 2}
	for _, p := range [][3]float64{{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}} {
		for r := 0; r < 5; r++ {
			d.X = append(d.X, []float64{p[0], p[1]})
			d.Y = append(d.Y, int(p[2]))
		}
	}
	tree, err := FitTree(d, nil, TreeConfig{}, nil)
	if err != nil {
		t.Fatalf("FitTree: %v", err)
	}
	for i, x := range d.X {
		if got := tree.Predict(x); got != d.Y[i] {
			t.Fatalf("XOR Predict(%v) = %d, want %d", x, got, d.Y[i])
		}
	}
}

func TestTreeMaxDepth(t *testing.T) {
	d := blobs(4, 30, 5, 1.0, 1)
	tree, err := FitTree(d, nil, TreeConfig{MaxDepth: 2}, nil)
	if err != nil {
		t.Fatalf("FitTree: %v", err)
	}
	if tree.Depth() > 2 {
		t.Errorf("depth = %d, want <= 2", tree.Depth())
	}
}

func TestTreeMinSamplesLeaf(t *testing.T) {
	d := blobs(2, 50, 3, 2.0, 2)
	tree, err := FitTree(d, nil, TreeConfig{MinSamplesLeaf: 20}, nil)
	if err != nil {
		t.Fatalf("FitTree: %v", err)
	}
	// With min leaf 20 of 100 samples, at most 5 leaves are possible;
	// the node count is bounded accordingly.
	if tree.NumNodes() > 2*5 {
		t.Errorf("NumNodes = %d, unexpectedly large for MinSamplesLeaf=20", tree.NumNodes())
	}
}

func TestForestAccuracyOnBlobs(t *testing.T) {
	train := blobs(5, 40, 8, 0.8, 3)
	test := blobs(5, 10, 8, 0.8, 4)
	f, err := FitForest(train, ForestConfig{NumTrees: 30, Seed: 7})
	if err != nil {
		t.Fatalf("FitForest: %v", err)
	}
	pred := f.PredictAll(test.X)
	if acc := Accuracy(pred, test.Y); acc < 0.95 {
		t.Errorf("forest accuracy = %.3f, want >= 0.95 on separable blobs", acc)
	}
}

func TestForestDeterministicAcrossWorkerCounts(t *testing.T) {
	d := blobs(3, 30, 6, 1.5, 5)
	f1, err := FitForest(d, ForestConfig{NumTrees: 20, Seed: 11, Workers: 1})
	if err != nil {
		t.Fatalf("FitForest(1 worker): %v", err)
	}
	f8, err := FitForest(d, ForestConfig{NumTrees: 20, Seed: 11, Workers: 8})
	if err != nil {
		t.Fatalf("FitForest(8 workers): %v", err)
	}
	for i, x := range d.X {
		if f1.Predict(x) != f8.Predict(x) {
			t.Fatalf("sample %d: predictions differ across worker counts", i)
		}
	}
}

func TestForestProbaSumsToOne(t *testing.T) {
	d := blobs(4, 20, 4, 1.0, 6)
	f, err := FitForest(d, ForestConfig{NumTrees: 15, Seed: 2})
	if err != nil {
		t.Fatalf("FitForest: %v", err)
	}
	p := make([]float64, f.NumClasses())
	for _, x := range d.X[:10] {
		f.PredictProbaInto(x, p)
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 {
				t.Fatalf("probability %v out of range", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("proba sums to %v, want 1", sum)
		}
	}
}

func TestForestEmptyDataset(t *testing.T) {
	_, err := FitForest(&Dataset{NumClasses: 1}, ForestConfig{NumTrees: 3})
	if err == nil {
		t.Fatal("FitForest on empty dataset succeeded")
	}
}

func TestMetrics(t *testing.T) {
	pred := []int{0, 0, 1, 1, 2, 2, 2}
	truth := []int{0, 1, 1, 1, 2, 2, 0}
	if got := Accuracy(pred, truth); math.Abs(got-5.0/7.0) > 1e-12 {
		t.Errorf("Accuracy = %v, want %v", got, 5.0/7.0)
	}
}

func TestAccuracyDegenerate(t *testing.T) {
	if Accuracy(nil, nil) != 0 {
		t.Error("Accuracy(nil, nil) != 0")
	}
	if Accuracy([]int{1}, []int{1, 2}) != 0 {
		t.Error("Accuracy with mismatched lengths != 0")
	}
}

func TestStratifiedKFold(t *testing.T) {
	y := make([]int, 100)
	for i := range y {
		y[i] = i % 4
	}
	folds, err := StratifiedKFold(y, 5, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("StratifiedKFold: %v", err)
	}
	if len(folds) != 5 {
		t.Fatalf("folds = %d, want 5", len(folds))
	}
	seen := make(map[int]int)
	for _, f := range folds {
		if len(f.Test) != 20 {
			t.Errorf("test fold size = %d, want 20", len(f.Test))
		}
		counts := make(map[int]int)
		for _, i := range f.Test {
			counts[y[i]]++
			seen[i]++
		}
		for c := 0; c < 4; c++ {
			if counts[c] != 5 {
				t.Errorf("class %d count in fold = %d, want 5", c, counts[c])
			}
		}
	}
	if len(seen) != 100 {
		t.Errorf("union of test folds covers %d samples, want 100", len(seen))
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("sample %d appears in %d test folds", i, n)
		}
	}
}

func TestStratifiedKFoldErrors(t *testing.T) {
	if _, err := StratifiedKFold([]int{0, 1}, 1, nil); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := StratifiedKFold([]int{0}, 2, nil); err == nil {
		t.Error("fewer samples than folds accepted")
	}
}

func TestGroupKFold(t *testing.T) {
	groups := []int{3, 3, 7, 7, 7, 9, 9, 3}
	folds, err := GroupKFold(groups)
	if err != nil {
		t.Fatalf("GroupKFold: %v", err)
	}
	if len(folds) != 3 {
		t.Fatalf("folds = %d, want 3 (one per group)", len(folds))
	}
	for _, f := range folds {
		testGroups := make(map[int]bool)
		for _, i := range f.Test {
			testGroups[groups[i]] = true
		}
		if len(testGroups) != 1 {
			t.Errorf("test fold mixes groups: %v", testGroups)
		}
		for _, i := range f.Train {
			if testGroups[groups[i]] {
				t.Errorf("train fold leaks test group")
			}
		}
	}
}

func TestGroupKFoldErrors(t *testing.T) {
	if _, err := GroupKFold(nil); err == nil {
		t.Error("empty groups accepted")
	}
	if _, err := GroupKFold([]int{1, 1, 1}); err == nil {
		t.Error("single group accepted")
	}
}

func TestCrossValidateForest(t *testing.T) {
	d := blobs(3, 24, 5, 0.8, 8)
	d.Groups = make([]int, len(d.X))
	for i := range d.Groups {
		d.Groups[i] = i % 4
	}
	folds, err := GroupKFold(d.Groups)
	if err != nil {
		t.Fatalf("GroupKFold: %v", err)
	}
	results, err := CrossValidateForest(d, folds, ForestConfig{NumTrees: 15, Seed: 3})
	if err != nil {
		t.Fatalf("CrossValidateForest: %v", err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d, want 4", len(results))
	}
	if acc := MeanAccuracy(results); acc < 0.9 {
		t.Errorf("mean CV accuracy = %.3f, want >= 0.9 on blobs", acc)
	}
	for _, r := range results {
		if len(r.Pred) != len(r.Truth) || len(r.Pred) != len(r.TestIdx) {
			t.Errorf("fold %d: inconsistent result lengths", r.Fold)
		}
	}
}

func TestInformationGain(t *testing.T) {
	// Feature 0 fully determines the class; feature 1 is constant;
	// feature 2 is noise.
	rng := rand.New(rand.NewSource(9))
	d := &Dataset{NumClasses: 2}
	for i := 0; i < 200; i++ {
		y := i % 2
		d.X = append(d.X, []float64{float64(y)*10 + rng.Float64(), 5.0, rng.Float64()})
		d.Y = append(d.Y, y)
	}
	gains := InformationGain(d, 10)
	if gains[0] < 0.9 {
		t.Errorf("informative feature gain = %v, want ~1", gains[0])
	}
	if gains[1] != 0 {
		t.Errorf("constant feature gain = %v, want 0", gains[1])
	}
	if gains[2] > gains[0]/2 {
		t.Errorf("noise feature gain %v not clearly below informative %v", gains[2], gains[0])
	}
}

func TestSelectTopK(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.0, 0.5, 0.9}
	got := SelectTopK(scores, 3)
	want := []int{1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("SelectTopK = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("SelectTopK = %v, want %v", got, want)
			break
		}
	}
}

func TestReduceByInformationGain(t *testing.T) {
	d := blobs(3, 20, 10, 0.5, 10)
	red, cols := ReduceByInformationGain(d, 4, 10)
	if red.NumFeatures() != len(cols) {
		t.Errorf("reduced width %d != len(cols) %d", red.NumFeatures(), len(cols))
	}
	if red.NumFeatures() > 4 {
		t.Errorf("reduced width %d > 4", red.NumFeatures())
	}
	if len(red.X) != len(d.X) {
		t.Errorf("row count changed: %d != %d", len(red.X), len(d.X))
	}
}

func TestKNN(t *testing.T) {
	train := blobs(3, 30, 4, 0.5, 11)
	test := blobs(3, 8, 4, 0.5, 12)
	knn, err := FitKNN(train, 3)
	if err != nil {
		t.Fatalf("FitKNN: %v", err)
	}
	pred := knn.PredictAll(test.X)
	if acc := Accuracy(pred, test.Y); acc < 0.95 {
		t.Errorf("kNN accuracy = %.3f, want >= 0.95", acc)
	}
	if _, err := FitKNN(train, 0); err == nil {
		t.Error("FitKNN(k=0) accepted")
	}
}

func TestForestPredictionInRange(t *testing.T) {
	d := blobs(4, 15, 3, 1.0, 13)
	f, err := FitForest(d, ForestConfig{NumTrees: 10, Seed: 1})
	if err != nil {
		t.Fatalf("FitForest: %v", err)
	}
	check := func(a, b, c float64) bool {
		y := f.Predict([]float64{a, b, c})
		return y >= 0 && y < d.NumClasses
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSubsetAndSelectColumns(t *testing.T) {
	d := &Dataset{
		X:          [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}},
		Y:          []int{0, 1, 0},
		Groups:     []int{10, 20, 30},
		NumClasses: 2,
		FeatureNames: []string{
			"a", "b", "c",
		},
	}
	s := d.Subset([]int{2, 0})
	if s.X[0][0] != 7 || s.Y[0] != 0 || s.Groups[0] != 30 {
		t.Errorf("Subset wrong: %+v", s)
	}
	c := d.SelectColumns([]int{2, 0})
	if c.X[1][0] != 6 || c.X[1][1] != 4 {
		t.Errorf("SelectColumns wrong: %v", c.X)
	}
	if c.FeatureNames[0] != "c" || c.FeatureNames[1] != "a" {
		t.Errorf("feature names not remapped: %v", c.FeatureNames)
	}
}

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }

// Predict returns the majority-vote class for one sample; ties break
// toward the lower class index, deterministically.
func (f *Forest) Predict(x []float64) int {
	proba := make([]float64, f.numClasses)
	f.PredictProbaInto(x, proba)
	best := 0
	for c, p := range proba {
		if p > proba[best] {
			best = c
		}
	}
	return best
}
