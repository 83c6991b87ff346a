package cppcheck

import (
	"testing"

	"gptattr/internal/cppast"
)

// TestSolveSweepsOnAcyclicShapes counts fixpoint sweeps, not time: on
// the acyclic pathological shapes both problems settle in at most one
// sweep plus the confirming one at any depth, because reaching
// definitions visit blocks in reverse postorder and liveness in
// postorder. Visited in reverse block-ID order, liveness needed about
// one sweep per level of a nested if.
func TestSolveSweepsOnAcyclicShapes(t *testing.T) {
	names := []string{"nested if", "nested while", "else if", "switch", "flat", "&& chain", "parentheses"}
	for _, n := range []int{64, 256} {
		for i, src := range shapeSeeds(n) {
			if names[i] == "nested while" {
				continue
			}
			g := new(Scratch).Build(cppast.MustParse(src).Function("main"))
			fa := freshAnalysis(g, nil)
			if s := fa.reachingDefs(); s > 3 {
				t.Errorf("%s at %d: reaching definitions took %d sweeps, want <= 3", names[i], n, s)
			}
			if s := fa.liveness(); s > 3 {
				t.Errorf("%s at %d: liveness took %d sweeps, want <= 3", names[i], n, s)
			}
		}
	}
}
