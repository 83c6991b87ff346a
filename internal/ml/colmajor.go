package ml

import "slices"

// colMatrix is the flat column-major mirror of a Dataset's row-major X:
// one contiguous []float64 with column f occupying data[f*n:(f+1)*n],
// plus the per-feature metadata pre-sorted CART induction starts from.
// Building it costs one pass over X plus one sort per feature; every
// tree of a forest (and every node of every tree) then reads columns
// with unit stride and never sorts again.
//
// Features are classified once, at build time:
//
//   - "coded" features have at most maxBins distinct values (term
//     frequencies, quantized ratios — most stylometric columns). Each
//     sample stores a one-byte rank code and split search runs over
//     exact per-value counting histograms: no sorted order is ever
//     maintained for them.
//   - "wide" features (more distinct values than codes) keep the
//     classic pre-sorted row order, maintained down the tree by stable
//     partitioning.
type colMatrix struct {
	n, nf int
	data  []float64
	// sorted holds, per feature, the dataset row indices ordered by
	// ascending feature value (ties in unspecified order — split search
	// only consults value boundaries, which are tie-order invariant).
	sorted []int32
	// codeOf maps feature -> coded slot, -1 for wide features;
	// wideIdx maps feature -> wide slot, -1 for coded features;
	// wideFeat is the inverse of wideIdx.
	codeOf   []int32
	wideIdx  []int32
	wideFeat []int32
	// codes stores, slot-major, each sample's value rank under a coded
	// feature: codes[slot*n+i] indexes into vals[slot].
	codes []uint8
	// vals[slot] lists a coded feature's distinct values ascending.
	vals [][]float64
	// maxK is the largest len(vals[slot]) — sizes histogram scratch.
	maxK int
}

// newColMatrix mirrors d.X. d must already be validated.
func newColMatrix(d *Dataset) *colMatrix {
	n, nf := len(d.X), d.NumFeatures()
	m := &colMatrix{
		n: n, nf: nf,
		data:    make([]float64, n*nf),
		sorted:  make([]int32, n*nf),
		codeOf:  make([]int32, nf),
		wideIdx: make([]int32, nf),
	}
	for i, row := range d.X {
		for f, v := range row {
			m.data[f*n+i] = v
		}
	}
	for f := 0; f < nf; f++ {
		col := m.col(f)
		ord := m.sortedCol(f)
		for i := range ord {
			ord[i] = int32(i)
		}
		slices.SortFunc(ord, func(a, b int32) int {
			switch {
			case col[a] < col[b]:
				return -1
			case col[a] > col[b]:
				return 1
			default:
				return 0
			}
		})
		distinct := 1
		for i := 1; i < n; i++ {
			if col[ord[i]] != col[ord[i-1]] {
				distinct++
			}
		}
		if distinct > maxBins {
			m.codeOf[f] = -1
			m.wideIdx[f] = int32(len(m.wideFeat))
			m.wideFeat = append(m.wideFeat, int32(f))
			continue
		}
		slot := len(m.vals)
		m.codeOf[f] = int32(slot)
		m.wideIdx[f] = -1
		base := len(m.codes)
		m.codes = append(m.codes, make([]uint8, n)...)
		vals := make([]float64, 0, distinct)
		code := -1
		for i, row := range ord {
			v := col[row]
			if i == 0 || v != vals[code] {
				vals = append(vals, v)
				code++
			}
			m.codes[base+int(row)] = uint8(code)
		}
		m.vals = append(m.vals, vals)
		if distinct > m.maxK {
			m.maxK = distinct
		}
	}
	return m
}

// nWide returns the number of wide (order-maintained) features.
func (m *colMatrix) nWide() int { return len(m.wideFeat) }

// col returns the contiguous values of feature f.
func (m *colMatrix) col(f int) []float64 { return m.data[f*m.n : (f+1)*m.n] }

// sortedCol returns the row order of feature f, ascending by value.
func (m *colMatrix) sortedCol(f int) []int32 { return m.sorted[f*m.n : (f+1)*m.n] }

// codedCol returns the per-sample value ranks of coded slot cs.
func (m *colMatrix) codedCol(cs int) []uint8 { return m.codes[cs*m.n : (cs+1)*m.n] }

// maxBins bounds the coded feature ranks to one byte.
const maxBins = 256

// trainCtx is the per-training-run immutable state shared by every
// tree of a forest: the dataset and its column-major mirror. Building
// it once per FitForest call is what lets tree workers skip all
// per-node sorting.
type trainCtx struct {
	d  *Dataset
	cm *colMatrix
}

// newTrainCtx assembles the shared training state. d must already be
// validated.
func newTrainCtx(d *Dataset) *trainCtx {
	return &trainCtx{d: d, cm: d.columns()}
}
