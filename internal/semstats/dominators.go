package semstats

// intersect walks both nodes up the dominator tree to their common
// ancestor. Larger RPO numbers are deeper, so walking always moves the
// larger index first.
func intersect(idom []int, a, b int) int {
	for a != b {
		for a > b {
			a = idom[a]
		}
		for b > a {
			b = idom[b]
		}
	}
	return a
}

// dominates reports whether a dominates b. Every node dominates itself.
func dominates(idom []int, a, b int) bool {
	for {
		if a == b {
			return true
		}
		if b == 0 {
			return false
		}
		b = idom[b]
	}
}
