package semstats

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"gptattr/internal/cppast"
)

// releaseSlots is the number of slots the next Release visits outside
// the cppcheck workspace (which pins its own): the stats up to the
// dirty mark with their grams, and the unit's function list.
func (s *Scratch) releaseSlots() int {
	n := s.sdirty + len(s.fnList)
	for _, st := range s.statPool[:s.sdirty] {
		n += len(st.Grams)
	}
	return n
}

// staleSlot returns a description of the first slot outside the
// cppcheck workspace that still refers to an analyzed unit, or "" when
// every one in the whole capacity is zero, as after Release.
func (s *Scratch) staleSlot() string {
	for _, f := range s.fnList[:cap(s.fnList)] {
		if f != nil {
			return "the function list"
		}
	}
	if len(s.funcs)+len(s.globals)+len(s.funcNames)+len(s.seen)+len(s.cg.idx)+len(s.sh.locals)+len(s.sh.idx) != 0 {
		return "a name map"
	}
	for _, st := range s.statPool {
		if st.Name != "" {
			return "a pooled FuncStats"
		}
		for _, g := range st.Grams[:cap(st.Grams)] {
			if g != (GramCount{}) {
				return "a pooled gram list"
			}
		}
	}
	return ""
}

// TestReleaseAfterHostileMatchesFresh runs each deep shape at depth
// 2,000, and one function of 20,000 variables, each followed by a small
// function, through a Scratch, then
// the reference corpus through that same Scratch, releasing after each
// unit. Every result must equal a fresh Scratch's, every Release must
// visit as many slots as a fresh Scratch's would, and after it no slot
// may still refer to the unit.
func TestReleaseAfterHostileMatchesFresh(t *testing.T) {
	var wide strings.Builder
	wide.WriteString("int main() {\n")
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&wide, "int v%d = %d;\n", i, i)
	}
	wide.WriteString("return 0;\n}\n")
	ctx := context.Background()
	corpus := referenceCorpus(t)
	for hi, src := range append(deepShapes(2000), wide.String()) {
		tu, err := cppast.Parse(src + " int tail() { return 0; }")
		if err != nil {
			t.Fatal(err)
		}
		sc := NewScratch()
		if _, err := sc.AnalyzeContext(ctx, tu); err != nil {
			t.Fatal(err)
		}
		sc.Release()
		if stale := sc.staleSlot(); stale != "" {
			t.Fatalf("hostile %d: after Release, %s still refers to the unit", hi, stale)
		}
		for i, src := range corpus {
			tu, err := cppast.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			fresh := NewScratch()
			want, err := fresh.AnalyzeContext(ctx, tu)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sc.AnalyzeContext(ctx, tu)
			if err != nil {
				t.Fatal(err)
			}
			diffStats(t, fmt.Sprintf("hostile %d, src %d", hi, i), want, got)
			if got, want := sc.releaseSlots(), fresh.releaseSlots(); got != want {
				t.Fatalf("hostile %d, src %d: Release would visit %d slots, a fresh scratch's %d", hi, i, got, want)
			}
			sc.Release()
			if stale := sc.staleSlot(); stale != "" {
				t.Fatalf("hostile %d, src %d: after Release, %s still refers to the unit", hi, i, stale)
			}
		}
	}
}
