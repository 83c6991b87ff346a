package attrib

import (
	"bytes"
	"io"
	"strconv"
	"strings"
	"testing"
)

func TestOracleSaveLoadRoundTrip(t *testing.T) {
	fx := fixture(t)
	var buf bytes.Buffer
	if err := fx.oracle.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := LoadOracle(&buf)
	if err != nil {
		t.Fatalf("LoadOracle: %v", err)
	}
	if strings.Join(loaded.Labels(), ",") != strings.Join(fx.oracle.Labels(), ",") {
		t.Error("labels changed across round trip")
	}
	// Predictions must be identical.
	for _, s := range fx.human.Samples[:24] {
		a, err := fx.oracle.Predict(s.Source)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Predict(s.Source)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("prediction diverged after round trip: %q vs %q", a, b)
		}
	}
}

func TestClassifierSaveLoadRoundTrip(t *testing.T) {
	fx := fixture(t)
	clf, err := TrainBinary(fx.human, fx.transformed, fx.cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := LoadClassifier(&buf)
	if err != nil {
		t.Fatalf("LoadClassifier: %v", err)
	}
	for _, s := range append(fx.human.Samples[:10], fx.transformed.Samples[:10]...) {
		_, ca, err := clf.IsChatGPT(s.Source)
		if err != nil {
			t.Fatal(err)
		}
		_, cb, err := loaded.IsChatGPT(s.Source)
		if err != nil {
			t.Fatal(err)
		}
		if ca != cb {
			t.Fatalf("confidence diverged: %v vs %v", ca, cb)
		}
	}
}

// TestLoadRejectsVersionMismatch pins the format-version gate: a model
// written by a different (future or corrupted) pipeline version must
// fail to load, never be silently served.
func TestLoadRejectsVersionMismatch(t *testing.T) {
	fx := fixture(t)
	var buf bytes.Buffer
	if err := fx.oracle.Save(&buf); err != nil {
		t.Fatal(err)
	}
	bumped := bytes.Replace(buf.Bytes(),
		[]byte(`{"version":1,`), []byte(`{"version":2,`), 1)
	if bytes.Equal(bumped, buf.Bytes()) {
		t.Fatal("version field not found in saved header")
	}
	if _, err := LoadOracle(bytes.NewReader(bumped)); err == nil {
		t.Error("oracle with future format version accepted")
	} else if !strings.Contains(err.Error(), "version") {
		t.Errorf("want version error, got: %v", err)
	}
	// A header predating versioning decodes as version 0.
	if _, err := LoadOracle(strings.NewReader(`{"kind":"oracle","labels":["a","b"]}`)); err == nil {
		t.Error("unversioned oracle header accepted")
	}
}

// TestLoadRejectsTruncation saves a model and checks that every
// truncation point fails cleanly: an error, never a panic or a model
// that half-loaded. The server loads models from disk state that can
// be mid-write or torn.
func TestLoadRejectsTruncation(t *testing.T) {
	fx := fixture(t)
	clf, err := TrainBinary(fx.human, fx.transformed, fx.cfg)
	if err != nil {
		t.Fatal(err)
	}
	saves := map[string]func(io.Writer) error{
		"oracle": fx.oracle.Save,
		"binary": clf.Save,
	}
	loads := map[string]func(io.Reader) error{
		"oracle": func(r io.Reader) error { _, err := LoadOracle(r); return err },
		"binary": func(r io.Reader) error { _, err := LoadClassifier(r); return err },
	}
	for kind, save := range saves {
		var buf bytes.Buffer
		if err := save(&buf); err != nil {
			t.Fatal(err)
		}
		full := buf.Bytes()
		// Cut inside the header, at the header/forest boundary region,
		// and inside the forest blob.
		for _, cut := range []int{0, 1, 10, len(full) / 4, len(full) / 2, len(full) - 2} {
			if err := loads[kind](bytes.NewReader(full[:cut])); err == nil {
				t.Errorf("%s truncated at %d/%d bytes loaded without error", kind, cut, len(full))
			}
		}
		if err := loads[kind](bytes.NewReader(full)); err != nil {
			t.Errorf("untruncated %s failed to load: %v", kind, err)
		}
	}
}

func TestLoadRejectsWrongKind(t *testing.T) {
	fx := fixture(t)
	var buf bytes.Buffer
	if err := fx.oracle.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadClassifier(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("oracle loaded as classifier")
	}
	if _, err := LoadOracle(strings.NewReader("not json")); err == nil {
		t.Error("garbage loaded as oracle")
	}
	if _, err := LoadOracle(strings.NewReader(`{"kind":"oracle"}`)); err == nil {
		t.Error("headerless oracle accepted")
	}
}

// duplicateLabel rewrites a saved oracle so its header names the first
// author label twice (in place of the second).
func duplicateLabel(t *testing.T, saved []byte, labels []string) []byte {
	t.Helper()
	at := bytes.Index(saved, []byte(`"labels":[`))
	if at < 0 {
		t.Fatal("labels not found in saved header")
	}
	q := func(s string) []byte { return []byte(strconv.Quote(s)) }
	head, rest := saved[:at], saved[at:]
	dup := bytes.Replace(rest, q(labels[1]), q(labels[0]), 1)
	if bytes.Equal(dup, rest) {
		t.Fatalf("label %q not found in saved header", labels[1])
	}
	return append(append([]byte(nil), head...), dup...)
}

// TestLoadRejectsDuplicateLabels: a header that names one label twice
// would merge two classes in every label-keyed answer, so the confidence
// could read a share other than the one that picked the author. It must
// fail to load.
func TestLoadRejectsDuplicateLabels(t *testing.T) {
	fx := fixture(t)
	var buf bytes.Buffer
	if err := fx.oracle.Save(&buf); err != nil {
		t.Fatal(err)
	}
	labels := fx.oracle.Labels()
	_, err := LoadOracle(bytes.NewReader(duplicateLabel(t, buf.Bytes(), labels)))
	if err == nil || !strings.Contains(err.Error(), "duplicate label") {
		t.Fatalf("LoadOracle of a duplicate-label header: err = %v, want a duplicate label error", err)
	}
}
