// Package pathological renders the hostile source shapes that the
// parser, CFG, dataflow, semantic-statistics and serving tests share:
// each is a few bytes of C++ per level whose structure grows deep or
// long with n, so code that is not linear in its input shows it.
package pathological

import (
	"fmt"
	"strings"
)

// Sources renders the seven pathological shapes — nested if, nested
// while, an else-if chain, a switch with one case per value, flat
// straight-line statements, an && chain and nested parentheses — at
// depth or length n, in that order.
func Sources(n int) []string {
	rep := func(s string) string { return strings.Repeat(s, n) }
	var elseIf, cases, and strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			elseIf.WriteString(" else ")
			and.WriteString(" && ")
		}
		fmt.Fprintf(&elseIf, "if (x == %d) y = %d;", i, i)
		fmt.Fprintf(&cases, "case %d: y = %d; break; ", i, i)
		fmt.Fprintf(&and, "x > %d", i)
	}
	return []string{
		"int main() { int x = 1, y = 0; " + rep("if (x) { ") + "y = y + 1; " + rep("} ") + "return y; }",
		"int main() { int x = 1, y = 0; " + rep("while (x) { ") + "x = 0; " + rep("} ") + "return y; }",
		"int main() { int x = 1, y = 0; " + elseIf.String() + " else y = -1; return y; }",
		"int main() { int x = 1, y = 0; switch (x) { " + cases.String() + "default: y = -1; } return y; }",
		"int main() { int y = 0, i = 1; " + rep("y = y + i; ") + "return y; }",
		"int main() { int x = 1, y = 0; if (" + and.String() + ") y = 1; return y; }",
		"int main() { int x = 1; int y = " + rep("(") + "x" + rep(")") + "; return y; }",
	}
}
