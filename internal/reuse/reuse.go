// Package reuse is the reset rule of the pooled extraction workspaces
// (cppast.Arena, cppcheck.Scratch, semstats.Scratch and the
// stylometry scratch that bundles them): a reset costs what the last
// request wrote, never what the workspace once grew to, and a
// workspace keeps no slab or map above a fixed size across a reset.
//
// The invariant every workspace keeps is that a slab's slots past the
// part in use are zero. A slice refilled from empty is reset with Slab,
// which clears only its length; a pool of slots handed out by a
// counter clears up to its dirty mark, the most slots taken since the
// last reset. So a reset never walks capacity, and no stale AST node or
// source string survives into a later unit.
package reuse

// MaxSlots is the largest capacity, in elements, a slab keeps across a
// reset; a larger one is dropped and the next request that needs the
// room grows a new one. It sits well above ordinary traffic: the
// synthetic corpora average 4.85 bytes per token, so the token buffer
// reaches it only at about 40 KB of source, and their largest function
// has 24 blocks. A 1 MiB body can still grow a slab tens of times
// larger; with the cap, that memory is released after the one request
// instead of staying pinned in a pool.
const MaxSlots = 1 << 13

// MaxEntries is the most entries a map keeps across a reset. On Go
// 1.24, clear(m) of a non-empty map costs the map's allocated capacity,
// and maps never shrink, so a map that once held a hostile function's
// 20,000 names would make every later reset pay for them. Above this
// size a map is replaced instead, which bounds every clear by a constant.
// The synthetic corpora's largest function interns 28 grams and 12
// variables; 512 leaves room for long hand-written functions.
const MaxEntries = 1 << 9

// Slab clears the elements s holds and returns it emptied for reuse,
// or nil when its capacity is above MaxSlots. Elements past len(s)
// must already be zero.
func Slab[T any](s []T) []T {
	clear(s)
	return Trim(s)[:0]
}

// Trim returns s, or nil when its capacity is above MaxSlots. It is
// the reset of a slab that holds no pointers, whose stale contents pin
// nothing and are overwritten before they are read.
func Trim[T any](s []T) []T {
	if cap(s) > MaxSlots {
		return nil
	}
	return s
}

// Map returns m emptied for reuse: cleared in place, or replaced by a
// new map when it is nil or holds more than MaxEntries entries. The
// workspaces only insert between resets, so a map's length at its
// reset is its peak since the last one, and a kept map never grew past
// MaxEntries.
func Map[M ~map[K]V, K comparable, V any](m M) M {
	if m == nil || len(m) > MaxEntries {
		return make(M)
	}
	clear(m)
	return m
}
