// Package evade defines the transformation action space of the
// Quiring et al. (USENIX Security 2019) evasion attack that the paper
// builds on: atomic, behaviour-preserving style rewrites an attacker
// composes into sequences that flip a model's attribution. The search
// engines that explore this space (seeded MCTS and beam search, the
// verification gate, hardening) live in internal/arena; this package
// owns only the immutable move table and the sequence renderer, so
// the hot search loop can index it without allocating.
package evade

import (
	"fmt"

	"gptattr/internal/cppast"
	"gptattr/internal/cppprint"
	"gptattr/internal/style"
	"gptattr/internal/transform"
)

// Action is one atomic transformation move in the search space.
type Action struct {
	// Name describes the move for traces.
	Name string
	// Apply rewrites the tree in place.
	Apply func(tu *cppast.TranslationUnit)
	// Print renders the tree after this action's pipeline; nil keeps
	// the previous config.
	Print *cppprint.Config
}

// actions is the package-level move table, built once at init. It is
// shared and must never be mutated: ActionSpace hands out the same
// backing array on every call so the search inner loop stays
// allocation-free.
var actions = buildActionSpace()

// ActionSpace returns the default move set: naming conversions, I/O
// conversion, loop conversion, namespace toggles, structure changes,
// and layout reconfigurations. The returned slice is the shared
// immutable table — callers must not modify it.
func ActionSpace() []Action { return actions }

func buildActionSpace() []Action {
	var out []Action
	for _, n := range []style.Naming{
		style.NamingCamel, style.NamingSnake, style.NamingHungarian,
		style.NamingShort, style.NamingVerbose,
	} {
		n := n
		out = append(out, Action{
			Name:  "rename-" + n.String(),
			Apply: func(tu *cppast.TranslationUnit) { transform.Rename(tu, n) },
		})
	}
	out = append(out,
		Action{Name: "io-stdio", Apply: func(tu *cppast.TranslationUnit) { transform.ConvertIO(tu, transform.ToStdio) }},
		Action{Name: "io-streams", Apply: func(tu *cppast.TranslationUnit) { transform.ConvertIO(tu, transform.ToStreams) }},
		Action{Name: "for-to-while", Apply: transform.ForToWhile},
		Action{Name: "while-to-for", Apply: transform.WhileToFor},
		Action{Name: "use-namespace", Apply: func(tu *cppast.TranslationUnit) { transform.SetUsingNamespace(tu, true) }},
		Action{Name: "qualify-std", Apply: func(tu *cppast.TranslationUnit) { transform.SetUsingNamespace(tu, false) }},
		Action{Name: "pre-increment", Apply: func(tu *cppast.TranslationUnit) { transform.SetIncrementStyle(tu, true) }},
		Action{Name: "post-increment", Apply: func(tu *cppast.TranslationUnit) { transform.SetIncrementStyle(tu, false) }},
		Action{Name: "extract-solve", Apply: func(tu *cppast.TranslationUnit) { transform.ExtractSolve(tu, "solveCase") }},
		Action{Name: "inline-helpers", Apply: func(tu *cppast.TranslationUnit) { transform.InlineVoidCalls(tu) }},
		Action{Name: "strip-comments", Apply: transform.StripComments},
	)
	layouts := []struct {
		name string
		cfg  cppprint.Config
	}{
		{"layout-allman-tabs", cppprint.Config{Allman: true, IndentTabs: true}},
		{"layout-kr-2sp", cppprint.Config{IndentWidth: 2}},
		{"layout-kr-tight", cppprint.Config{TightOps: true, TightCommas: true}},
		{"layout-allman-8sp", cppprint.Config{Allman: true, IndentWidth: 8}},
	}
	for _, l := range layouts {
		cfg := l.cfg
		out = append(out, Action{
			Name:  l.name,
			Apply: func(*cppast.TranslationUnit) {},
			Print: &cfg,
		})
	}
	return out
}

// Render applies the action sequence seq (indices into ActionSpace)
// to src and reprints the result. It does not verify behaviour —
// the arena's verification gate owns that judgment.
func Render(src string, seq []int) (string, error) {
	tu, err := cppast.Parse(src)
	if err != nil {
		return "", fmt.Errorf("evade: parsing source: %w", err)
	}
	printCfg := cppprint.Config{}
	for _, ai := range seq {
		if ai < 0 || ai >= len(actions) {
			return "", fmt.Errorf("evade: action index %d out of range [0,%d)", ai, len(actions))
		}
		a := actions[ai]
		a.Apply(tu)
		if a.Print != nil {
			printCfg = *a.Print
		}
	}
	transform.RegenerateHeaders(tu, false)
	return cppprint.Print(tu, printCfg), nil
}

// Names maps an action-index sequence to the action names, for traces.
func Names(seq []int) []string {
	out := make([]string, len(seq))
	for i, ai := range seq {
		out[i] = actions[ai].Name
	}
	return out
}
