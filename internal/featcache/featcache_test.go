package featcache

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"gptattr/internal/stylometry"
)

func TestKeyStableAndDistinct(t *testing.T) {
	k1 := Key("fp1", "int main() {}")
	if k2 := Key("fp1", "int main() {}"); k2 != k1 {
		t.Errorf("key not stable: %s vs %s", k1, k2)
	}
	if k := Key("fp2", "int main() {}"); k == k1 {
		t.Error("different fingerprints produced the same key")
	}
	if k := Key("fp1", "int main() { return 0; }"); k == k1 {
		t.Error("different sources produced the same key")
	}
	// Length-prefixing: moving bytes across the fingerprint/source
	// boundary must change the key.
	if Key("ab", "cd") == Key("abc", "d") {
		t.Error("boundary shift produced the same key")
	}
}

func TestMemoryCacheRoundTrip(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("src"); ok {
		t.Fatal("hit on empty cache")
	}
	f := stylometry.Features{"A": 1, "B": 2.5}
	c.Put("src", f)
	got, ok := c.Get("src")
	if !ok {
		t.Fatal("miss after Put")
	}
	if gf := got.Features(); gf["A"] != 1 || gf["B"] != 2.5 || len(gf) != 2 {
		t.Errorf("wrong features: %v", gf)
	}
	// Put copies a map, so the caller's later writes do not reach the
	// entry; Get shares the immutable vector instead of cloning it.
	f["A"] = 99
	delete(f, "B")
	again, _ := c.Get("src")
	if again != got {
		t.Error("Get copied the cached vector")
	}
	if af := again.Features(); af["A"] != 1 || af["B"] != 2.5 {
		t.Errorf("cache shares maps with callers: %v", af)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 2 hits 1 miss", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c, err := New(Options{MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Put("a", stylometry.Features{"x": 1})
	c.Put("b", stylometry.Features{"x": 2})
	c.Get("a") // refresh a; b is now least recent
	c.Put("c", stylometry.Features{"x": 3})
	if _, ok := c.Get("b"); ok {
		t.Error("least-recently-used entry survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("recently used entry was evicted")
	}
	if n := c.Stats().Entries; n != 2 {
		t.Errorf("Entries = %d, want 2", n)
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Errorf("Evictions = %d, want 1", ev)
	}
}

func TestDiskLayerSurvivesNewCache(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c1.Put("src", stylometry.Features{"A": 1.25})

	// A fresh cache instance with an empty memory layer must hit disk.
	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get("src")
	if !ok {
		t.Fatal("disk layer miss")
	}
	if got.Features()["A"] != 1.25 {
		t.Errorf("disk features = %v", got)
	}
	if st := c2.Stats(); st.DiskHits != 1 {
		t.Errorf("DiskHits = %d, want 1", st.DiskHits)
	}

	// A different fingerprint must not see the entry.
	c3, err := New(Options{Dir: dir, Fingerprint: "other/v2"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c3.Get("src"); ok {
		t.Error("fingerprint mismatch still hit disk")
	}
}

// TestDiskLayerRecoversFromCorruptEntry writes garbage where a cache
// entry should live and asserts full recovery: the read is a miss, the
// bad file is deleted, and a recomputed entry lands cleanly and is
// served on the next read — including from a fresh cache over the same
// directory.
func TestDiskLayerRecoversFromCorruptEntry(t *testing.T) {
	garbage := [][]byte{
		[]byte("{not json"),
		[]byte(""),                     // zero-length (crashed writer)
		[]byte(`{"A":1`),               // truncated mid-object
		[]byte(`[1,2,3]`),              // valid JSON, wrong shape
		{0xff, 0xfe, 0x00, 0x01, 0x02}, // binary junk
	}
	for gi, junk := range garbage {
		dir := t.TempDir()
		c, err := New(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		src := fmt.Sprintf("int main() { return %d; }", gi)
		key := Key(ExtractorFingerprint, src)
		path := filepath.Join(dir, key[:2], key+".json")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, junk, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(src); ok {
			t.Errorf("garbage %d: corrupt disk entry treated as a hit", gi)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("garbage %d: corrupt entry not deleted (stat err: %v)", gi, err)
		}
		// Recompute path: store fresh features over the cleaned slot.
		f := stylometry.Features{"A": float64(gi), "B": 2}
		c.Put(src, f)
		got, ok := c.Get(src)
		if !ok || got.Features()["A"] != float64(gi) {
			t.Fatalf("garbage %d: recomputed entry not served (ok=%v, got=%v)", gi, ok, got)
		}
		// A brand-new cache over the same dir must read the rewritten
		// file — proving the disk slot itself recovered.
		c2, err := New(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		got, ok = c2.Get(src)
		if !ok || got.Features()["B"] != 2 {
			t.Fatalf("garbage %d: rewritten disk entry unreadable (ok=%v, got=%v)", gi, ok, got)
		}
		if s := c2.Stats(); s.DiskHits != 1 {
			t.Errorf("garbage %d: disk hits = %d, want 1", gi, s.DiskHits)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	c, err := New(Options{MaxEntries: 64, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				src := fmt.Sprintf("src-%d", i%10)
				if v, ok := c.Get(src); ok {
					if f := v.Features(); f["i"] != float64(i%10) {
						t.Errorf("wrong cached value for %s: %v", src, f)
						return
					}
					continue
				}
				c.Put(src, stylometry.Features{"i": float64(i % 10)})
			}
		}(g)
	}
	wg.Wait()
}

// TestSizeGauges pins Stats.Entries and Stats.Bytes: after every Put
// they equal the count and the summed Sparse.Bytes of the entries in
// memory, through inserts, a replacement and evictions.
func TestSizeGauges(t *testing.T) {
	const max = 4
	c, err := New(Options{MaxEntries: max})
	if err != nil {
		t.Fatal(err)
	}
	held := map[string]*stylometry.Sparse{}
	var order []string
	check := func(step string) {
		t.Helper()
		want := 0
		for _, v := range held {
			want += v.Bytes()
		}
		if st := c.Stats(); st.Entries != len(held) || st.Bytes != int64(want) {
			t.Errorf("%s: entries=%d bytes=%d, want %d and %d", step, st.Entries, st.Bytes, len(held), want)
		}
	}
	put := func(src string, n int) {
		f := stylometry.Features{"AvgLineLength": float64(n)}
		for i := 0; i < n; i++ {
			f[fmt.Sprintf("WordUnigram:w%d", i)] = 1
		}
		v := f.Sparse()
		c.Put(src, v)
		if _, ok := held[src]; !ok {
			order = append(order, src)
		}
		held[src] = v
		if len(order) > max {
			delete(held, order[0])
			order = order[1:]
		}
	}
	check("empty")
	for i := 0; i < max; i++ {
		put(fmt.Sprintf("s%d", i), i+1)
		check(fmt.Sprintf("insert %d", i))
	}
	put("s0", 40) // replace in place; s0 becomes most recent
	order = append(order[1:], "s0")
	check("replace")
	before := c.Stats().Bytes
	put("big-gone-soon", 1) // evicts s1
	check("evict")
	if after := c.Stats().Bytes; after >= before {
		t.Errorf("evicting a larger entry for a smaller one: bytes %d -> %d, want a fall", before, after)
	}
}

// TestConcurrentGetAndScore shares cached vectors between readers that
// vectorize them and writers that replace entries; run under -race it
// checks that a shared Sparse is only ever read.
func TestConcurrentGetAndScore(t *testing.T) {
	c, err := New(Options{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	doc := func(i int) stylometry.Features {
		return stylometry.Features{"AvgLineLength": float64(i), "WordUnigram:x": float64(i % 3)}
	}
	vec := stylometry.NewVectorizer([]stylometry.Features{doc(1), doc(2)}, stylometry.VectorizerConfig{MinDocFreq: 1, UseTFIDF: true})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			row := make([]float64, vec.NumFeatures())
			want := make([]float64, vec.NumFeatures())
			for i := 0; i < 200; i++ {
				src := fmt.Sprintf("src-%d", i%12)
				v, ok := c.Get(src)
				if !ok {
					c.Put(src, doc(i%12))
					continue
				}
				vec.VectorIntoSparse(v, row)
				vec.VectorInto(doc(i%12), want)
				for j := range row {
					if row[j] != want[j] {
						t.Errorf("goroutine %d: %s column %d = %v, want %v", g, src, j, row[j], want[j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzFeatureCacheKey checks that keys are stable across calls and
// that no two differing (fingerprint, source) pairs — including
// boundary shifts between the two parts — collide.
func FuzzFeatureCacheKey(f *testing.F) {
	f.Add("caliskan-islam/v1", "int main() { return 0; }")
	f.Add("", "")
	f.Add("fp", "x")
	f.Add("a", "bc")
	f.Fuzz(func(t *testing.T, fingerprint, source string) {
		k := Key(fingerprint, source)
		if len(k) != 64 {
			t.Fatalf("key length %d, want 64 hex chars", len(k))
		}
		if again := Key(fingerprint, source); again != k {
			t.Fatalf("key unstable: %s vs %s", k, again)
		}
		if Key(fingerprint+"x", source) == k || Key(fingerprint, source+"x") == k {
			t.Fatal("suffix change did not change key")
		}
		// Shift the boundary: (fp, s) and (fp+s[:1], s[1:]) must differ.
		if len(source) > 0 {
			shifted := Key(fingerprint+source[:1], source[1:])
			if shifted == k {
				t.Fatalf("boundary shift collision for %q/%q", fingerprint, source)
			}
		}
	})
}
