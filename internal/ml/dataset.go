// Package ml implements the machine-learning substrate the paper's
// attribution pipeline runs on: CART decision trees, a random forest
// with bootstrap aggregation and per-split feature subsampling (the
// classifier family of Caliskan-Islam et al.), information-gain feature
// selection, cross-validation helpers, evaluation metrics, and a kNN
// baseline. Everything is deterministic given a seed, and forest
// training parallelizes across trees with a bounded worker pool.
package ml

import (
	"errors"
	"fmt"
	"sync"
)

// Dataset is a dense labelled design matrix.
type Dataset struct {
	// X is the feature matrix, one row per sample.
	X [][]float64
	// Y holds class indices parallel to X.
	Y []int
	// Groups optionally assigns each sample to a fold group (e.g. the
	// challenge it solves) for grouped cross-validation. Nil when
	// unused.
	Groups []int
	// NumClasses is one greater than the largest class index.
	NumClasses int
	// FeatureNames optionally names columns for diagnostics.
	FeatureNames []string

	// colOnce guards the lazily built column-major mirror (colmat).
	// Training builds it once per dataset; X must not be mutated after
	// the first FitTree/FitForest call on this dataset.
	colOnce sync.Once
	colmat  *colMatrix
}

// columns returns the flat column-major mirror of X, building (and
// per-feature sorting) it on first use. Safe for concurrent callers.
func (d *Dataset) columns() *colMatrix {
	d.colOnce.Do(func() { d.colmat = newColMatrix(d) })
	return d.colmat
}

// ErrEmptyDataset is returned when fitting on no samples.
var ErrEmptyDataset = errors.New("ml: empty dataset")

// Validate checks internal consistency.
func (d *Dataset) Validate() error {
	if len(d.X) == 0 {
		return ErrEmptyDataset
	}
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("ml: %d rows but %d labels", len(d.X), len(d.Y))
	}
	if d.Groups != nil && len(d.Groups) != len(d.X) {
		return fmt.Errorf("ml: %d rows but %d groups", len(d.X), len(d.Groups))
	}
	w := len(d.X[0])
	for i, row := range d.X {
		if len(row) != w {
			return fmt.Errorf("ml: row %d has %d features, want %d", i, len(row), w)
		}
	}
	for i, y := range d.Y {
		if y < 0 || y >= d.NumClasses {
			return fmt.Errorf("ml: label %d of sample %d outside [0,%d)", y, i, d.NumClasses)
		}
	}
	return nil
}

// NumFeatures returns the column count.
func (d *Dataset) NumFeatures() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Subset returns a new dataset containing the given row indices. The
// rows are shared, not copied.
func (d *Dataset) Subset(idx []int) *Dataset {
	sub := &Dataset{
		X:            make([][]float64, len(idx)),
		Y:            make([]int, len(idx)),
		NumClasses:   d.NumClasses,
		FeatureNames: d.FeatureNames,
	}
	if d.Groups != nil {
		sub.Groups = make([]int, len(idx))
	}
	for i, j := range idx {
		sub.X[i] = d.X[j]
		sub.Y[i] = d.Y[j]
		if d.Groups != nil {
			sub.Groups[i] = d.Groups[j]
		}
	}
	return sub
}

// SelectColumns returns a dataset restricted to the given feature
// columns (rows are copied).
func (d *Dataset) SelectColumns(cols []int) *Dataset {
	sub := &Dataset{
		X:          make([][]float64, len(d.X)),
		Y:          d.Y,
		Groups:     d.Groups,
		NumClasses: d.NumClasses,
	}
	if d.FeatureNames != nil {
		sub.FeatureNames = make([]string, len(cols))
		for i, c := range cols {
			sub.FeatureNames[i] = d.FeatureNames[c]
		}
	}
	for i, row := range d.X {
		nr := make([]float64, len(cols))
		for j, c := range cols {
			nr[j] = row[c]
		}
		sub.X[i] = nr
	}
	return sub
}
