package attrib

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"gptattr/internal/jsonscan"
	"gptattr/internal/ml"
	"gptattr/internal/stylometry"
)

// FormatVersion is the on-disk model format. Loaders reject any other
// version outright: a model written by a different feature pipeline
// must never be silently served.
const FormatVersion = 1

// modelEnvelope is the on-disk container for trained models: a header
// with version, vectorizer, selected columns, and labels, followed by
// the forest.
type modelEnvelope struct {
	Version int                    `json:"version"`
	Kind    string                 `json:"kind"` // "oracle" or "binary"
	Vec     *stylometry.Vectorizer `json:"vectorizer"`
	Cols    []int                  `json:"columns"`
	Labels  []string               `json:"labels,omitempty"`

	// Ladder metadata (format-additive: absent in legacy models, which
	// load as level 0, unrestricted, uncalibrated). Level is the
	// degrade-ladder position, Families the family subset trained on,
	// Calibration the out-of-bag accuracy estimate.
	Level       int      `json:"level,omitempty"`
	Families    []string `json:"families,omitempty"`
	Calibration float64  `json:"calibration,omitempty"`
}

// familyNames renders families for the envelope.
func familyNames(fams []stylometry.FeatureFamily) []string {
	if len(fams) == 0 {
		return nil
	}
	out := make([]string, len(fams))
	for i, f := range fams {
		out[i] = f.String()
	}
	return out
}

// parseFamilies inverts familyNames, dropping unknown names (a newer
// writer's family degrades to "unrestricted" rather than failing the
// load).
func parseFamilies(names []string) []stylometry.FeatureFamily {
	var out []stylometry.FeatureFamily
	for _, n := range names {
		for _, f := range stylometry.AllFamilies {
			if f.String() == n {
				out = append(out, f)
				break
			}
		}
	}
	return out
}

// save writes the core's envelope header (with labels, if any) and
// then the forest to w as two JSON lines.
func (m *model) save(w io.Writer, kind string, labels []string) error {
	env := modelEnvelope{Version: FormatVersion, Kind: kind, Vec: m.vec, Cols: m.cols, Labels: labels,
		Level: int(m.level), Families: familyNames(m.families), Calibration: m.calib}
	if err := json.NewEncoder(w).Encode(env); err != nil {
		return fmt.Errorf("attrib: save %s header: %w", kind, err)
	}
	return m.forest.Encode(w)
}

// load decodes and validates the model header, then the forest that
// follows it, into m and returns the header's labels. The input is
// untrusted disk state: the version and kind must match, and the
// forest and columns must be consistent with the header's feature
// widths so prediction can never index out of range. Callers check the
// class count against their labels.
//
// The exact bytes save writes take scanModel's one-pass fast path; any
// other input is decoded by encoding/json, which also reports every
// decode error, so the fast path changes no answer.
func (m *model) load(r io.Reader, kind string) ([]string, error) {
	data, err := jsonscan.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("attrib: load %s: %w", kind, err)
	}
	env, forest := scanModel(data)
	if forest != nil {
		err = env.check(kind)
	} else {
		env, forest, err = decodeModel(data, kind)
	}
	if err != nil {
		return nil, err
	}
	return m.set(env, forest)
}

// scanModel is load's fast path: the header line and the forest line
// exactly as save writes them, keys in save's order and no whitespace,
// read through one jsonscan cursor. It returns a nil forest for any
// other input, or a forest ml.DecodeForest would reject.
func scanModel(data []byte) (*modelEnvelope, *ml.Forest) {
	c := jsonscan.NewCursor(data)
	env := &modelEnvelope{}
	c.Lit(`{"version":`)
	env.Version = c.Int()
	c.Lit(`,"kind":`)
	env.Kind = c.Str()
	c.Lit(`,"vectorizer":`)
	env.Vec = stylometry.ScanVectorizer(&c)
	c.Lit(`,"columns":`)
	env.Cols = c.Ints()
	if c.Opt(`,"labels":`) {
		env.Labels = c.Strs()
	}
	if c.Opt(`,"level":`) {
		env.Level = c.Int()
	}
	if c.Opt(`,"families":`) {
		env.Families = c.Strs()
	}
	if c.Opt(`,"calibration":`) {
		env.Calibration = c.Float()
	}
	c.Lit("}\n")
	forest := ml.ScanForest(&c)
	c.Opt("\n")
	if !c.Done() {
		return nil, nil
	}
	return env, forest
}

// decodeModel is load through encoding/json: the header as one JSON
// value, checked before ml.DecodeForest decodes the forest that follows
// it.
func decodeModel(data []byte, kind string) (*modelEnvelope, *ml.Forest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	env := &modelEnvelope{}
	if err := dec.Decode(env); err != nil {
		return nil, nil, fmt.Errorf("attrib: load %s header: %w", kind, err)
	}
	if err := env.check(kind); err != nil {
		return nil, nil, err
	}
	forest, err := ml.DecodeForest(bytes.NewReader(data[dec.InputOffset():]))
	return env, forest, err
}

// check validates a decoded header on its own: the version, the kind,
// a vectorizer, and columns that each name one of its features.
func (env *modelEnvelope) check(kind string) error {
	if env.Version != FormatVersion {
		return fmt.Errorf("attrib: model format version %d, want %d", env.Version, FormatVersion)
	}
	if env.Kind != kind {
		return fmt.Errorf("attrib: model kind %q, want %s", env.Kind, kind)
	}
	if env.Vec == nil {
		return fmt.Errorf("attrib: malformed %s header", kind)
	}
	for _, col := range env.Cols {
		if col < 0 || col >= env.Vec.NumFeatures() {
			return fmt.Errorf("attrib: header column %d outside the vectorizer's %d features",
				col, env.Vec.NumFeatures())
		}
	}
	return nil
}

// set installs a decoded header and forest into m, once the forest is
// checked against the header's columns, and returns the labels.
func (m *model) set(env *modelEnvelope, forest *ml.Forest) ([]string, error) {
	if forest.MaxFeature() >= len(env.Cols) {
		return nil, fmt.Errorf("attrib: forest consults feature %d but header has %d columns",
			forest.MaxFeature(), len(env.Cols))
	}
	m.forest, m.vec, m.cols = forest, env.Vec, env.Cols
	m.level = stylometry.DegradeLevel(env.Level).Clamp()
	m.families = parseFamilies(env.Families)
	m.calib = env.Calibration
	return env.Labels, nil
}

// Save writes the oracle to w as JSON (header line + forest line).
func (o *Oracle) Save(w io.Writer) error { return o.save(w, "oracle", o.labels) }

// LoadOracle reads an oracle previously written by Save.
func LoadOracle(r io.Reader) (*Oracle, error) {
	o := &Oracle{}
	labels, err := o.load(r, "oracle")
	if err != nil {
		return nil, err
	}
	if len(labels) < 2 {
		return nil, fmt.Errorf("attrib: malformed oracle header")
	}
	if o.forest.NumClasses() != len(labels) {
		return nil, fmt.Errorf("attrib: forest has %d classes for %d labels",
			o.forest.NumClasses(), len(labels))
	}
	// Each class must have its own label: a repeated one would merge
	// two classes in every label-keyed answer.
	seen := make(map[string]bool, len(labels))
	for _, l := range labels {
		if seen[l] {
			return nil, fmt.Errorf("attrib: duplicate label %q in oracle header", l)
		}
		seen[l] = true
	}
	o.labels = labels
	return o, nil
}

// Save writes the binary classifier to w as JSON.
func (c *Classifier) Save(w io.Writer) error { return c.save(w, "binary", nil) }

// LoadClassifier reads a classifier previously written by Save.
func LoadClassifier(r io.Reader) (*Classifier, error) {
	c := &Classifier{}
	if _, err := c.load(r, "binary"); err != nil {
		return nil, err
	}
	if c.forest.NumClasses() != 2 {
		return nil, fmt.Errorf("attrib: binary classifier forest has %d classes", c.forest.NumClasses())
	}
	return c, nil
}
