package stylometry

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// hostileSources are the two sources after which an ordinary
// extraction on the same scratch used to pay for the hostile one: `if`
// nested 2,000 deep, and one function declaring 20,000 initialized
// variables (about 400 KB, under the served 1 MiB body cap).
func hostileSources() []string {
	var wide strings.Builder
	wide.WriteString("int main() {\n")
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&wide, "int v%d = %d;\n", i, i)
	}
	wide.WriteString("return 0;\n}\n")
	nested := "int main() { int x = 1, y = 0; " + strings.Repeat("if (x) { ", 2000) + "y = y + 1; " + strings.Repeat("} ", 2000) + "return y; }"
	return []string{nested, wide.String()}
}

// TestExtractAfterHostileMatchesFresh runs the golden corpus through a
// scratch that has just served a hostile source, releasing after each
// extraction as putScratch does: every vector must equal a fresh
// scratch's, and the token buffer, the one slab release clears outside
// the arena and semstats (which pin their own), must hold only what
// the source itself wrote.
func TestExtractAfterHostileMatchesFresh(t *testing.T) {
	ctx := context.Background()
	for hi, hostile := range hostileSources() {
		sc := newScratch()
		if _, err := sc.extractVec(ctx, hostile, DegradeNone); err != nil {
			t.Fatal(err)
		}
		sc.release()
		for i, src := range goldenSources() {
			fresh := newScratch()
			if _, err := fresh.extractVec(ctx, src, DegradeNone); err != nil {
				t.Fatal(err)
			}
			if _, err := sc.extractVec(ctx, src, DegradeNone); err != nil {
				t.Fatal(err)
			}
			if got, want := sc.vec.Features(), fresh.vec.Features(); !reflect.DeepEqual(got, want) {
				t.Fatalf("hostile %d, src %d: features differ from a fresh scratch's", hi, i)
			}
			if len(sc.toks) != len(fresh.toks) {
				t.Fatalf("hostile %d, src %d: release would clear %d tokens, a fresh scratch's %d", hi, i, len(sc.toks), len(fresh.toks))
			}
			sc.release()
		}
	}
}

// TestReleaseDropsSource pins that a released scratch does not keep the
// last request's source reachable: once the caller drops a heap-backed
// source, a collection frees it even though the scratch lives on. The
// probe is a finalizer on the source's bytes, which runs only once
// nothing reaches them (the weak package needs a newer go line than
// go.mod's).
func TestReleaseDropsSource(t *testing.T) {
	sc := newScratch()
	freed := extractDroppedSource(t, sc)
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(sc)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the released scratch still pins the source it extracted")
}

// extractDroppedSource extracts a fresh heap copy of benchSrc through
// sc and releases sc. The returned channel closes when the copy's
// bytes are collected.
func extractDroppedSource(t *testing.T, sc *scratch) <-chan struct{} {
	buf := []byte(benchSrc)
	freed := make(chan struct{})
	runtime.SetFinalizer(&buf[0], func(*byte) { close(freed) })
	if _, err := sc.extractVec(context.Background(), unsafe.String(&buf[0], len(buf)), DegradeNone); err != nil {
		t.Fatal(err)
	}
	sc.release()
	return freed
}
