package reuse

import "testing"

func TestSlabClearsWhatWasWrittenAndDropsOversized(t *testing.T) {
	s := make([]*int, 3, 8)
	for i := range s {
		s[i] = new(int)
	}
	s = Slab(s)
	if len(s) != 0 || cap(s) != 8 {
		t.Fatalf("Slab kept len %d cap %d, want 0 and 8", len(s), cap(s))
	}
	for i, p := range s[:cap(s)] {
		if p != nil {
			t.Fatalf("slot %d still holds a pointer", i)
		}
	}
	if s := Slab(make([]*int, 1, MaxSlots+1)); s != nil {
		t.Fatalf("Slab kept a slab of capacity %d above MaxSlots", cap(s))
	}
	if s := Trim(make([]int32, 5, MaxSlots)); len(s) != 5 {
		t.Fatalf("Trim changed a slab within MaxSlots to length %d", len(s))
	}
}

func TestMapReplacesOnlyAboveMaxEntries(t *testing.T) {
	m := Map[map[int]bool](nil)
	if m == nil {
		t.Fatal("Map of a nil map returned nil")
	}
	for i := 0; i < MaxEntries; i++ {
		m[i] = true
	}
	m[-1] = true // one past the cap
	if got := Map(m); len(got) != 0 || len(m) != MaxEntries+1 {
		t.Fatalf("Map of an oversized map returned %d entries and left the old one %d, want a new empty map", len(got), len(m))
	}
	kept := make(map[int]bool)
	kept[1] = true
	Map(kept)
	if len(kept) != 0 {
		t.Fatal("Map replaced a small map instead of clearing it in place")
	}
}
