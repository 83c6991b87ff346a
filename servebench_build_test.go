package gptattr

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// TestServebenchBuilds compiles and vets the servebench module. It is a
// separate module (replace gptattr => ../, no other dependency), so
// `go test ./...` at the root never builds it: without this test a
// rename in serve or stylometry would break only the benchmark run.
func TestServebenchBuilds(t *testing.T) {
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goBin); err != nil {
		if goBin, err = exec.LookPath("go"); err != nil {
			t.Fatalf("no go command to build servebench with: %v", err)
		}
	}
	// The binary goes to a temporary directory: nothing is written
	// into the servebench tree.
	out := t.TempDir() + string(filepath.Separator)
	for _, args := range [][]string{{"build", "-o", out, "./..."}, {"vet", "./..."}} {
		cmd := exec.Command(goBin, args...)
		cmd.Dir = "servebench"
		cmd.Env = append(os.Environ(), "GOWORK=off")
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("go %s in servebench: %v\n%s", args[0], err, msg)
		}
	}
}
