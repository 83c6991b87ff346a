package featcache

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gptattr/internal/fault"
	"gptattr/internal/stylometry"
)

// TestTornWriteNeverLeavesTruncatedEntry arms the torn-write fault so
// every store publishes a truncated payload, exactly what a
// non-atomic writer crashing mid-write used to leave behind. The
// entry on disk must either be absent or fail to decode, and a fresh
// cache over the directory must treat it as a miss, delete it, and
// serve a recomputed entry cleanly — the crash can corrupt one cache
// slot but never poison a run.
func TestTornWriteNeverLeavesTruncatedEntry(t *testing.T) {
	defer fault.Disable()
	dir := t.TempDir()
	c, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	fault.Enable(11)
	fault.Set(PointDiskTorn, fault.Policy{Kind: fault.KindPartialWrite})
	src := "int main() { return 7; }"
	full := stylometry.Features{"AST_depth": 4, "ws_ratio": 0.25}
	c.Put(src, full)
	fault.Disable()

	key := Key(ExtractorFingerprint, src)
	path := filepath.Join(dir, key[:2], key+".json")
	if data, err := os.ReadFile(path); err == nil {
		var f stylometry.Features
		if json.Unmarshal(data, &f) == nil && len(f) == len(full) {
			t.Fatalf("torn write produced a complete entry: %q", data)
		}
	}

	// A fresh cache (cold memory) must recover: miss, delete, recompute.
	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(src); ok {
		t.Fatal("torn entry served as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("torn entry not deleted (stat err: %v)", err)
	}
	c2.Put(src, full)
	c3, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c3.Get(src); !ok || got.Features()["AST_depth"] != 4 {
		t.Fatalf("recomputed entry unreadable: ok=%v got=%v", ok, got)
	}
}

// TestDiskFaultsRetriedThenRecovered checks the bounded retry
// supervisor: write and read faults with Limit < retry attempts are
// absorbed without the caller ever noticing.
func TestDiskFaultsRetriedThenRecovered(t *testing.T) {
	defer fault.Disable()
	dir := t.TempDir()
	c, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	fault.Enable(5)
	fault.Set(PointDiskWrite, fault.Policy{Kind: fault.KindError, Limit: diskRetries - 1})
	fault.Set(PointDiskRead, fault.Policy{Kind: fault.KindError, Limit: diskRetries - 1})
	c.Put("src", stylometry.Features{"A": 3})

	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get("src")
	if !ok || got.Features()["A"] != 3 {
		t.Fatalf("entry lost under retried faults: ok=%v got=%v", ok, got)
	}
	st := fault.Stats()
	if st[PointDiskWrite].Fires == 0 || st[PointDiskRead].Fires == 0 {
		t.Fatalf("fault storm never fired: %+v", st)
	}
}

// TestRenameFaultLeavesNoTempFiles checks that an injected rename
// failure (past the retry budget) cleans up its temp file and simply
// degrades to a cache miss — no partial state left in the directory.
func TestRenameFaultLeavesNoTempFiles(t *testing.T) {
	defer fault.Disable()
	dir := t.TempDir()
	c, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(5)
	fault.Set(PointDiskRename, fault.Policy{Kind: fault.KindError})
	c.Put("src", stylometry.Features{"A": 1})
	fault.Disable()

	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasPrefix(d.Name(), "tmp-") {
			t.Errorf("leftover temp file %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get("src"); ok {
		t.Fatal("entry present although every rename failed")
	}
}
