package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestRegistryLoadsBothModels(t *testing.T) {
	r, err := NewRegistry(modelDir(t))
	if err != nil {
		t.Fatal(err)
	}
	m := r.Current()
	if m.Oracle == nil || m.Detector == nil {
		t.Fatalf("oracle=%v detector=%v, want both non-nil", m.Oracle, m.Detector)
	}
	if m.Generation != 1 {
		t.Errorf("generation = %d, want 1", m.Generation)
	}
	if len(m.Oracle.Labels()) < 2 {
		t.Errorf("oracle labels = %v", m.Oracle.Labels())
	}
}

func TestRegistryEmptyDirStartsDegraded(t *testing.T) {
	r, err := NewRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := r.Current()
	if m.Oracle != nil || m.Detector != nil {
		t.Error("models loaded from empty dir")
	}
	if m.Generation != 1 {
		t.Errorf("generation = %d, want 1", m.Generation)
	}
}

func TestRegistryMissingDirFails(t *testing.T) {
	if _, err := NewRegistry(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("registry over missing dir succeeded")
	}
}

func TestRegistryCorruptModelFailsClosed(t *testing.T) {
	dir := modelDir(t)
	// Initial load must refuse a corrupt model outright.
	if err := os.WriteFile(filepath.Join(dir, OracleFile), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRegistry(dir); err == nil {
		t.Fatal("registry loaded corrupt oracle")
	}
}

func TestRegistryReloadKeepsOldGenerationOnError(t *testing.T) {
	dir := modelDir(t)
	r, err := NewRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	old := r.Current()

	// Corrupt the detector, then reload: the error must not disturb
	// the serving generation.
	if err := os.WriteFile(filepath.Join(dir, DetectorFile), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.Load(); err == nil {
		t.Fatal("reload of corrupt detector succeeded")
	}
	if got := r.Current(); got != old {
		t.Error("failed reload replaced the live generation")
	}

	// Repair and reload: generation advances, old pointer still valid.
	if err := os.WriteFile(filepath.Join(dir, DetectorFile), detBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.Load(); err != nil {
		t.Fatalf("reload after repair: %v", err)
	}
	now := r.Current()
	if now.Generation <= old.Generation {
		t.Errorf("generation %d did not advance past %d", now.Generation, old.Generation)
	}
	// A request that grabbed the old generation can still finish on it.
	if _, err := old.Oracle.Predict(sampleSource(t, 0)); err != nil {
		t.Errorf("old generation unusable after reload: %v", err)
	}
}

// TestRegistryHotSwapUnderLoad hammers Current from readers while
// reloads run — meaningful under -race: lookups must be lock-free and
// never observe a half-published generation.
func TestRegistryHotSwapUnderLoad(t *testing.T) {
	r, err := NewRegistry(modelDir(t))
	if err != nil {
		t.Fatal(err)
	}
	src := sampleSource(t, 0)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m := r.Current()
				if m.Oracle == nil {
					t.Error("reader observed generation without oracle")
					return
				}
				if _, err := m.Oracle.Predict(src); err != nil {
					t.Errorf("predict: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		if err := r.Load(); err != nil {
			t.Errorf("reload %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if gen := r.Current().Generation; gen != 6 {
		t.Errorf("generation = %d, want 6 (1 initial + 5 reloads)", gen)
	}
}

// TestRegistryRejectsDuplicateLabels: an oracle whose header names one
// author twice fails to load, and a reload onto it leaves the previous
// generation serving.
func TestRegistryRejectsDuplicateLabels(t *testing.T) {
	dir := modelDir(t)
	r, err := NewRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	old := r.Current()
	labels := old.Oracle.Labels()
	at := bytes.Index(oracleBytes, []byte(`"labels":[`))
	if at < 0 {
		t.Fatal("labels not found in the saved oracle header")
	}
	q := func(s string) []byte { return []byte(strconv.Quote(s)) }
	dup := append(append([]byte(nil), oracleBytes[:at]...),
		bytes.Replace(oracleBytes[at:], q(labels[1]), q(labels[0]), 1)...)
	if err := os.WriteFile(filepath.Join(dir, OracleFile), dup, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.Load(); err == nil || !strings.Contains(err.Error(), "duplicate label") {
		t.Fatalf("reload onto a duplicate-label oracle: err = %v, want a duplicate label error", err)
	}
	if r.Current() != old {
		t.Fatal("failed reload replaced the live generation")
	}
	b := NewBatcher(BatchConfig{})
	defer b.Close()
	s, err := New(Config{Registry: r, Batcher: b})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(AttributeRequest{Source: sampleSource(t, 0)})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/attribute", bytes.NewReader(body)))
	if rec.Code != http.StatusOK || rec.Header().Get(GenerationHeader) != strconv.FormatUint(old.Generation, 10) {
		t.Fatalf("after the failed reload: status %d, generation %q, want 200 from generation %d: %s",
			rec.Code, rec.Header().Get(GenerationHeader), old.Generation, rec.Body)
	}
}
