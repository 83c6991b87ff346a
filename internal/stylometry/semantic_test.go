package stylometry_test

// The semantic feature group's whole reason to exist is surviving
// rewrites: a surface rewriter may move every lexical and layout
// feature, but renaming and reformatting must not move a single
// semantic feature. This file pins that contract bit-for-bit against
// the real evade action space — if a new semantic feature or a new
// rename/layout action breaks the invariance, this test names the
// exact features that moved.

import (
	"strings"
	"testing"

	"gptattr/internal/evade"
	"gptattr/internal/stylometry"
)

// invariantActions are the ActionSpace names whose rewrites must leave
// the semantic sub-vector bit-identical: every rename-* and layout-*
// action (the pinned contract), plus the purely lexical rewrites that
// the normalized passes erase by construction.
func invariantAction(name string) bool {
	if strings.HasPrefix(name, "rename-") || strings.HasPrefix(name, "layout-") {
		return true
	}
	switch name {
	case "strip-comments", "use-namespace", "qualify-std", "pre-increment", "post-increment":
		return true
	}
	return false
}

var invarianceSources = []string{
	`#include <iostream>
#include <vector>
using namespace std;
int best;
int score(int a, int b) {
    if (a > b) { return a - b; }
    return b - a;
}
int main() {
    int n;
    cin >> n;
    vector<int> v(n);
    for (int i = 0; i < n; i++) {
        cin >> v[i];
    }
    for (int i = 0; i < n; i++) {
        for (int j = i + 1; j < n; j++) {
            int s = score(v[i], v[j]);
            if (s > best) {
                best = s;
            }
        }
    }
    cout << best << endl;
    return 0;
}
`,
	`#include <cstdio>
long long fact(int n) {
    if (n <= 1) { return 1; }
    return n * fact(n - 1);
}
int main() {
    int t;
    scanf("%d", &t);
    while (t > 0) {
        int x;
        scanf("%d", &x);
        printf("%lld\n", fact(x));
        t--;
    }
    return 0;
}
`,
	`#include <iostream>
#include <string>
using namespace std;
int main() {
    string line;
    int count = 0;
    while (cin >> line) {
        int vowels = 0;
        for (int i = 0; i < (int)line.size(); i++) {
            char c = line[i];
            if (c == 'a' || c == 'e' || c == 'i' || c == 'o' || c == 'u') {
                vowels++;
            }
        }
        if (vowels * 2 > (int)line.size()) {
            count += 1;
        }
    }
    cout << count << "\n";
    return 0;
}
`,
}

// semBlock extracts the semantic sub-vector of a source.
func semBlock(t *testing.T, src string) stylometry.Features {
	t.Helper()
	f, err := stylometry.Extract(src)
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	return f.Sparse().Features(stylometry.FamilySemantic)
}

// diffFeatures returns a readable diff of two feature maps.
func diffFeatures(a, b stylometry.Features) []string {
	var out []string
	for name, va := range a {
		vb, ok := b[name]
		if !ok {
			out = append(out, name+": dropped")
		} else if va != vb {
			out = append(out, name+": value moved")
		}
	}
	for name := range b {
		if _, ok := a[name]; !ok {
			out = append(out, name+": appeared")
		}
	}
	return out
}

// TestSemanticInvariantUnderRenameAndLayout applies every rename and
// layout action of the evade action space (plus the lexical rewrites
// listed in invariantAction) to realistic sources and requires the
// semantic sub-vector to come back bit-identical.
func TestSemanticInvariantUnderRenameAndLayout(t *testing.T) {
	actions := evade.ActionSpace()
	covered := 0
	for si, src := range invarianceSources {
		base := semBlock(t, src)
		if len(base) == 0 {
			t.Fatalf("source %d produced no semantic features", si)
		}
		for ai, a := range actions {
			if !invariantAction(a.Name) {
				continue
			}
			covered++
			rewritten, err := evade.Render(src, []int{ai})
			if err != nil {
				t.Fatalf("source %d: render %s: %v", si, a.Name, err)
			}
			got := semBlock(t, rewritten)
			if diff := diffFeatures(base, got); len(diff) > 0 {
				t.Errorf("source %d: action %s moved %d semantic features:\n  %s",
					si, a.Name, len(diff), strings.Join(diff, "\n  "))
			}
		}
	}
	if covered == 0 {
		t.Fatal("no invariant actions found in the action space")
	}
}

// TestSemanticInvariantUnderActionStacks goes further than single
// actions: random-ish fixed stacks of rename+layout rewrites applied
// together must still leave the block untouched.
func TestSemanticInvariantUnderActionStacks(t *testing.T) {
	actions := evade.ActionSpace()
	var inv []int
	for i, a := range actions {
		if invariantAction(a.Name) {
			inv = append(inv, i)
		}
	}
	if len(inv) < 4 {
		t.Fatalf("too few invariant actions: %d", len(inv))
	}
	stacks := [][]int{
		{inv[0], inv[len(inv)-1]},
		{inv[len(inv)/2], inv[1], inv[len(inv)-2]},
		inv, // every invariant action in sequence
	}
	src := invarianceSources[0]
	base := semBlock(t, src)
	for ki, seq := range stacks {
		rewritten, err := evade.Render(src, seq)
		if err != nil {
			t.Fatalf("stack %d (%v): %v", ki, evade.Names(seq), err)
		}
		got := semBlock(t, rewritten)
		if diff := diffFeatures(base, got); len(diff) > 0 {
			t.Errorf("stack %d (%v) moved %d semantic features:\n  %s",
				ki, evade.Names(seq), len(diff), strings.Join(diff, "\n  "))
		}
	}
}

// TestSemanticMovesUnderStructuralRewrites is the control: actions
// that genuinely change program semantics — library-call rewrites and
// helper extraction — must move the semantic block. If they did not,
// the group would carry no signal at all.
func TestSemanticMovesUnderStructuralRewrites(t *testing.T) {
	actions := evade.ActionSpace()
	// extractSrc is shaped so extract-solve applies: the main loop's
	// body touches only the loop counter, locals it declares, globals,
	// and protected library names, so the whole body can be lifted into
	// a solveCase helper — adding a function and a call edge.
	const extractSrc = `#include <cstdio>
int total;
int main() {
    int t;
    scanf("%d", &t);
    for (int i = 0; i < t; i++) {
        int x;
        scanf("%d", &x);
        total += x;
        printf("%d\n", total);
    }
    return 0;
}
`
	cases := []struct {
		action string
		src    string
	}{
		{"io-stdio", invarianceSources[0]},   // cin/cout -> scanf/printf: shape grams name library calls
		{"io-streams", invarianceSources[1]}, // scanf/printf -> cin/cout
		{"extract-solve", extractSrc},        // new helper + call edge: call-graph features move
	}
	for _, tc := range cases {
		ai := -1
		for i, a := range actions {
			if a.Name == tc.action {
				ai = i
			}
		}
		if ai < 0 {
			t.Fatalf("action %s not in action space", tc.action)
		}
		rewritten, err := evade.Render(tc.src, []int{ai})
		if err != nil {
			t.Fatalf("render %s: %v", tc.action, err)
		}
		if rewritten == tc.src {
			t.Fatalf("action %s did not rewrite the control source", tc.action)
		}
		base := semBlock(t, tc.src)
		if len(diffFeatures(base, semBlock(t, rewritten))) == 0 {
			t.Errorf("action %s rewrote the source but left the semantic block unchanged", tc.action)
		}
	}
}
