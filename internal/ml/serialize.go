package ml

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"gptattr/internal/jsonscan"
)

// forestDTO is the JSON wire form of a Forest.
type forestDTO struct {
	NumClasses int       `json:"num_classes"`
	Trees      []treeDTO `json:"trees"`
}

type treeDTO struct {
	Feature   []int     `json:"feature"`
	Threshold []float64 `json:"threshold"`
	Left      []int32   `json:"left"`
	Right     []int32   `json:"right"`
	Class     []int32   `json:"class"`
}

// Encode writes the forest as JSON.
func (f *Forest) Encode(w io.Writer) error {
	dto := forestDTO{NumClasses: f.numClasses}
	for _, t := range f.trees {
		td := treeDTO{
			Feature:   make([]int, len(t.nodes)),
			Threshold: make([]float64, len(t.nodes)),
			Left:      make([]int32, len(t.nodes)),
			Right:     make([]int32, len(t.nodes)),
			Class:     make([]int32, len(t.nodes)),
		}
		for i, n := range t.nodes {
			td.Feature[i] = n.feature
			td.Threshold[i] = n.threshold
			td.Left[i] = n.left
			td.Right[i] = n.right
			td.Class[i] = n.class
		}
		dto.Trees = append(dto.Trees, td)
	}
	return json.NewEncoder(w).Encode(dto)
}

// Decode limits. Real models are far below both: the paper's forests
// have 100 trees over at most 205 classes. The caps bound the memory a
// hostile or corrupt file can make Votes/PredictProba allocate.
const (
	maxDecodeClasses = 1 << 16
	maxDecodeTrees   = 1 << 16
)

// ScanForest reads the forest Encode writes, without its trailing
// newline, from c: {"num_classes":…,"trees":[{"feature":[…],
// "threshold":[…],"left":[…],"right":[…],"class":[…]},…]} with no
// whitespace, read straight into each tree's nodes. The input is
// validated as untrusted: node arrays must be consistent, children
// must point strictly forward (so Predict terminates), leaf classes
// must fall inside the declared class count (so Votes never indexes
// out of range), and the declared counts are capped so a corrupt file
// cannot force huge allocations downstream. Nothing is sized from a
// declared count: a tree's nodes grow in one scratch slice and are
// copied out at their final length.
func ScanForest(c *jsonscan.Cursor) (*Forest, error) {
	c.Lit(`{"num_classes":`)
	f := &Forest{numClasses: c.Int()}
	c.Lit(`,"trees":[`)
	var scratch []treeNode
	for ti := 0; c.Next(ti); ti++ {
		nodes := scratch[:0]
		c.Lit(`{"feature":[`)
		for i := 0; c.Next(i); i++ {
			nodes = append(nodes, treeNode{feature: c.Int()})
		}
		scratch = nodes
		same := scanNodes(c, `,"threshold":`, nodes, func(n *treeNode) { n.threshold = c.Float() }) &&
			scanNodes(c, `,"left":`, nodes, func(n *treeNode) { n.left = c.Int32() }) &&
			scanNodes(c, `,"right":`, nodes, func(n *treeNode) { n.right = c.Int32() }) &&
			scanNodes(c, `,"class":`, nodes, func(n *treeNode) { n.class = c.Int32() })
		if !same && c.OK() {
			return nil, fmt.Errorf("ml: tree %d has inconsistent node arrays", ti)
		}
		c.Lit("}")
		if err := c.Err(); err != nil {
			return nil, fmt.Errorf("ml: decode forest: %w", err)
		}
		if err := checkTree(ti, nodes, f.numClasses); err != nil {
			return nil, err
		}
		f.trees = append(f.trees, &Tree{numClasses: f.numClasses, nodes: slices.Clone(nodes)})
	}
	c.Lit("}")
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("ml: decode forest: %w", err)
	}
	if err := checkForest(f.numClasses, len(f.trees)); err != nil {
		return nil, err
	}
	return f, nil
}

// scanNodes reads key and then one per-node array of a tree into
// nodes, one element per node through read. It reports whether the
// array held exactly len(nodes) elements; it stops, without failing c,
// at an element past the last node.
func scanNodes(c *jsonscan.Cursor, key string, nodes []treeNode, read func(*treeNode)) bool {
	c.Lit(key)
	c.Lit("[")
	i := 0
	for ; c.Next(i); i++ {
		if i == len(nodes) {
			return false
		}
		read(&nodes[i])
	}
	return i == len(nodes)
}

// checkForest validates a decoded forest's declared counts.
func checkForest(numClasses, numTrees int) error {
	if numClasses < 1 || numClasses > maxDecodeClasses {
		return fmt.Errorf("ml: decoded forest has %d classes", numClasses)
	}
	if numTrees > maxDecodeTrees {
		return fmt.Errorf("ml: decoded forest has %d trees", numTrees)
	}
	if numTrees == 0 {
		return fmt.Errorf("ml: decoded forest has no trees")
	}
	return nil
}

// checkTree validates tree ti's decoded nodes: at least one, children
// strictly after their parent (the builder appends parents before
// subtrees, and Predict relies on this to terminate on untrusted
// input), and every class inside the forest's class count.
func checkTree(ti int, nodes []treeNode, numClasses int) error {
	n := len(nodes)
	if n == 0 {
		return fmt.Errorf("ml: tree %d is empty", ti)
	}
	for i, nd := range nodes {
		if nd.feature >= 0 {
			if int(nd.left) <= i || int(nd.left) >= n || int(nd.right) <= i || int(nd.right) >= n {
				return fmt.Errorf("ml: tree %d node %d has out-of-range children", ti, i)
			}
		}
		if nd.class < 0 || int(nd.class) >= numClasses {
			return fmt.Errorf("ml: tree %d node %d class %d outside %d classes", ti, i, nd.class, numClasses)
		}
	}
	return nil
}

// NumClasses returns the class count the forest was trained with.
func (f *Forest) NumClasses() int { return f.numClasses }

// MaxFeature returns the largest feature index any split consults, or
// -1 for a forest of pure leaves. Callers loading a forest from disk
// can check it against their vector width before predicting.
func (f *Forest) MaxFeature() int {
	max := -1
	for _, t := range f.trees {
		for _, n := range t.nodes {
			if n.feature > max {
				max = n.feature
			}
		}
	}
	return max
}
