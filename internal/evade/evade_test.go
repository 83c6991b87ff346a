package evade

import (
	"strings"
	"testing"
)

const testSrc = "#include <iostream>\nusing namespace std;\nint main(){int x;cin>>x;cout<<x<<endl;return 0;}"

func TestActionSpaceSanity(t *testing.T) {
	actions := ActionSpace()
	if len(actions) < 15 {
		t.Fatalf("action space = %d moves, want >= 15", len(actions))
	}
	names := map[string]bool{}
	for _, a := range actions {
		if a.Name == "" || a.Apply == nil {
			t.Fatalf("malformed action %+v", a)
		}
		if names[a.Name] {
			t.Fatalf("duplicate action %q", a.Name)
		}
		names[a.Name] = true
	}
}

func TestActionSpaceIsShared(t *testing.T) {
	a, b := ActionSpace(), ActionSpace()
	if &a[0] != &b[0] {
		t.Fatal("ActionSpace returned distinct backing arrays; the table must be shared")
	}
}

// The hot search loop indexes the table on every candidate; handing it
// out must never allocate.
func TestActionSpaceAllocFree(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		if len(ActionSpace()) == 0 {
			t.Fatal("empty action space")
		}
	})
	if allocs != 0 {
		t.Fatalf("ActionSpace allocates %.1f per call, want 0", allocs)
	}
}

func TestRenderAppliesSequence(t *testing.T) {
	// strip-comments then a layout change: output parses and differs.
	var strip, layout int = -1, -1
	for i, a := range ActionSpace() {
		switch a.Name {
		case "strip-comments":
			strip = i
		case "layout-allman-tabs":
			layout = i
		}
	}
	if strip < 0 || layout < 0 {
		t.Fatal("expected actions missing from table")
	}
	out, err := Render(testSrc, []int{strip, layout})
	if err != nil {
		t.Fatal(err)
	}
	if out == "" || out == testSrc {
		t.Fatal("render produced no change")
	}
	if !strings.Contains(out, "main") {
		t.Fatalf("rendered source lost main:\n%s", out)
	}
}

func TestRenderEmptySequenceReprints(t *testing.T) {
	out, err := Render(testSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "main") {
		t.Fatal("reprint lost main")
	}
}

func TestRenderRejectsBadIndex(t *testing.T) {
	if _, err := Render(testSrc, []int{len(ActionSpace())}); err == nil {
		t.Error("out-of-range action index not rejected")
	}
	if _, err := Render(testSrc, []int{-1}); err == nil {
		t.Error("negative action index not rejected")
	}
}

func TestRenderRejectsUnparsableSource(t *testing.T) {
	if _, err := Render("int main(){ cout << \"unterminated; }", nil); err == nil {
		t.Error("unparsable source not rejected")
	}
}

func TestNames(t *testing.T) {
	names := Names([]int{0, 1})
	if len(names) != 2 || names[0] == "" || names[1] == "" {
		t.Fatalf("Names = %v", names)
	}
	if names[0] != ActionSpace()[0].Name {
		t.Fatalf("Names[0] = %q, want %q", names[0], ActionSpace()[0].Name)
	}
}
