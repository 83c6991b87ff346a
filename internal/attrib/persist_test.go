package attrib

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"gptattr/internal/stylometry"
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

// rewriteFirstColumn rewrites a saved model so its header's first
// selected column reads col.
func rewriteFirstColumn(t testing.TB, saved []byte, col string) []byte {
	t.Helper()
	at := bytes.Index(saved, []byte(`"columns":[`))
	if at < 0 {
		t.Fatal("columns not found in saved header")
	}
	at += len(`"columns":[`)
	end := at + bytes.IndexAny(saved[at:], ",]")
	return append(append(append([]byte(nil), saved[:at]...), col...), saved[end:]...)
}

// TestLoadRejectsColumnOutsideVectorizer: every selected column names
// one of the vectorizer's features, or scoring indexes past the dense
// row. A header whose column is negative or past the vectorizer must
// fail to load; the same header with whitespace fails earlier, as a
// header that is not Save's layout.
func TestLoadRejectsColumnOutsideVectorizer(t *testing.T) {
	fx := fixture(t)
	var buf bytes.Buffer
	if err := fx.oracle.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"99999999", "-1", strconv.Itoa(fx.oracle.vec.NumFeatures())} {
		bad := rewriteFirstColumn(t, buf.Bytes(), col)
		_, err := LoadOracle(bytes.NewReader(bad))
		if err == nil || !strings.Contains(err.Error(), "outside the vectorizer") {
			t.Errorf("column %s: err = %v, want a column outside the vectorizer error", col, err)
		}
		spaced := append([]byte("{ "), bad[1:]...)
		_, err = LoadOracle(bytes.NewReader(spaced))
		if want := "attrib: load oracle header: malformed at byte 0"; fmt.Sprint(err) != want {
			t.Errorf("column %s, spaced header: err = %v, want %s", col, err, want)
		}
	}
}

// TestLoadRejectsNonCanonicalModel: a model file has one writer, so
// anything but Save's layout fails to load, with an error naming the
// byte where the input left it. Bytes after the forest included: one
// forest value followed by more input is not a model file.
func TestLoadRejectsNonCanonicalModel(t *testing.T) {
	fx := fixture(t)
	var buf bytes.Buffer
	if err := fx.oracle.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()
	at := func(sub string) int {
		i := bytes.Index(saved, []byte(sub))
		if i < 0 {
			t.Fatalf("no %q in saved bytes", sub)
		}
		return i
	}
	edit := func(old, new string) []byte {
		at(old)
		return bytes.Replace(saved, []byte(old), []byte(new), 1)
	}
	header := "attrib: load oracle header: malformed at byte %d"
	tail := "attrib: load oracle: malformed at byte %d"
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"trailing garbage", append(append([]byte(nil), saved...), "garbage"...), fmt.Sprintf(tail, len(saved))},
		{"two models", append(append([]byte(nil), saved...), saved...), fmt.Sprintf(tail, len(saved))},
		{"space after the brace", append([]byte("{ "), saved[1:]...), fmt.Sprintf(header, 0)},
		{"reordered keys", edit(`{"version":1,"kind":"oracle",`, `{"kind":"oracle","version":1,`), fmt.Sprintf(header, 0)},
		{"TF-IDF set", edit(`"UseTFIDF":false`, `"UseTFIDF":true`), fmt.Sprintf(header, at(`,"UseTFIDF":`))},
		{"an idf map", edit(`,"cfg":{"MinDocFreq":0,"UseTFIDF":false}`,
			`,"idf":{"WordUnigram:a":1.5},"cfg":{"MinDocFreq":2,"UseTFIDF":true}`), fmt.Sprintf(header, at(`,"cfg":`))},
	} {
		if _, err := LoadOracle(bytes.NewReader(tc.data)); fmt.Sprint(err) != tc.want {
			t.Errorf("%s: err = %v, want %s", tc.name, err, tc.want)
		}
	}
}

// refHeader and refForest mirror a model file's two lines for the
// frozen encoding/json reader the scanner replaced: the header with the
// vectorizer in its wire form, and the forest's wire form.
type refHeader struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`
	Vec     *struct {
		Names []string           `json:"names"`
		IDF   map[string]float64 `json:"idf,omitempty"`
		Cfg   struct {
			MinDocFreq int
			UseTFIDF   bool
		} `json:"cfg"`
	} `json:"vectorizer"`
	Cols        []int    `json:"columns"`
	Labels      []string `json:"labels,omitempty"`
	Level       int      `json:"level,omitempty"`
	Families    []string `json:"families,omitempty"`
	Calibration float64  `json:"calibration,omitempty"`
}

type refForest struct {
	NumClasses int `json:"num_classes"`
	Trees      []struct {
		Feature   []int     `json:"feature"`
		Threshold []float64 `json:"threshold"`
		Left      []int32   `json:"left"`
		Right     []int32   `json:"right"`
		Class     []int32   `json:"class"`
	} `json:"trees"`
}

// refSave decodes data as a model of kind through encoding/json, the
// header and then the forest value that follows it, and returns what
// saving that model writes: the two values re-encoded, with the level
// clamped and unknown families dropped as model.set does.
func refSave(data []byte, kind string) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var h refHeader
	var forest refForest
	if err := dec.Decode(&h); err != nil {
		return nil, err
	}
	if err := dec.Decode(&forest); err != nil {
		return nil, err
	}
	if h.Version != FormatVersion || h.Kind != kind || h.Vec == nil {
		return nil, fmt.Errorf("header version %d, kind %q", h.Version, h.Kind)
	}
	h.Level = int(stylometry.DegradeLevel(h.Level).Clamp())
	h.Families = familyNames(parseFamilies(h.Families))
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	if err := enc.Encode(h); err != nil {
		return nil, err
	}
	if err := enc.Encode(forest); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// loadSave loads data as a model of kind and returns what saving it
// writes.
func loadSave(data []byte, kind string) ([]byte, error) {
	var m model
	labels, err := m.load(bytes.NewReader(data), kind)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := m.save(&out, kind, labels); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// forestCases are ml's TestDecodeForestHardening inputs: forests
// ScanForest must reject.
var forestCases = []string{
	`{"num_classes":1000000000,"trees":[{"feature":[-1],"threshold":[0],"left":[0],"right":[0],"class":[0]}]}`,
	`{"num_classes":2,"trees":[{"feature":[],"threshold":[],"left":[],"right":[],"class":[]}]}`,
	`{"num_classes":2,"trees":[{"feature":[-1],"threshold":[0],"left":[0],"right":[0],"class":[2]}]}`,
	`{"num_classes":2,"trees":[{"feature":[-1],"threshold":[0],"left":[0],"right":[0],"class":[-1]}]}`,
	`{"num_classes":2,"trees":[{"feature":[0],"threshold":[0.5],"left":[0],"right":[0],"class":[0]}]}`,
	`{"num_classes":2,"trees":[{"feature":[-1,0],"threshold":[0,0.5],"left":[0,0],"right":[0,0],"class":[0,0]}]}`,
}

// FuzzDecodeModel: on any bytes, loading either model kind never
// panics, and whatever it accepts, the frozen encoding/json reader
// decodes to a model with equal Save bytes. Every trained model's saved
// bytes must load, so the comparison is not vacuous.
func FuzzDecodeModel(f *testing.F) {
	for _, m := range goldenModels(f) {
		var buf bytes.Buffer
		if err := m.save(&buf); err != nil {
			f.Fatal(err)
		}
		saved := buf.Bytes()
		if _, err := m.load(bytes.NewReader(saved)); err != nil {
			f.Fatalf("%s: saved bytes do not load: %v", m.name, err)
		}
		f.Add(saved)
		if m.name != "oracle.l0" {
			continue
		}
		header := saved[:bytes.IndexByte(saved, '\n')+1]
		for _, forest := range forestCases {
			f.Add(append(append([]byte(nil), header...), forest+"\n"...))
		}
		f.Add(rewriteFirstColumn(f, saved, "99999999"))
		for _, edit := range []struct {
			old, new string
			ok       bool // whether the edited bytes still load
		}{
			{`"A001"`, `"\u0041001"`, true}, // an escape in a label
			{`\u003e`, `>`, true},           // a name written without encoding/json's escape
			{`"UseTFIDF":false`, `"UseTFIDF":true`, false},
			{`,"cfg":{"MinDocFreq":0,"UseTFIDF":false}`, // a TF-IDF vectorizer
				`,"idf":{"WordUnigram:a":1.5,"WordUnigram:b\u003e":2.25},"cfg":{"MinDocFreq":2,"UseTFIDF":true}`, false},
			{`{"version":1,"kind":"oracle",`, `{"kind":"oracle","version":1,`, false}, // reordered keys
			{`"columns":[`, `"columns": [`, false},                                    // whitespace in the header
			{"}\n{", "}\n\n {", false},                                                // whitespace before the forest
		} {
			edited := bytes.Replace(saved, []byte(edit.old), []byte(edit.new), 1)
			if bytes.Equal(edited, saved) {
				f.Fatalf("%s: no %q in saved bytes", m.name, edit.old)
			}
			if _, err := loadSave(edited, "oracle"); (err == nil) != edit.ok {
				f.Fatalf("%s with %q: load err = %v, want ok %v", m.name, edit.new, err, edit.ok)
			}
			f.Add(edited)
		}
		f.Add(append(append([]byte(nil), saved...), "garbage"...))
		f.Add(append(append([]byte(nil), saved...), saved...))
		for _, cut := range []int{1, len(header) - 1, len(header), len(saved) / 2, len(saved) - 2} {
			f.Add(saved[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range []string{"oracle", "binary"} {
			got, err := loadSave(data, kind)
			if err != nil {
				continue
			}
			want, err := refSave(data, kind)
			if err != nil {
				t.Fatalf("%s: load accepted what encoding/json rejects: %v", kind, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: load and encoding/json decode different models:\n%s\n%s", kind, got, want)
			}
		}
	})
}
