package attrib

import (
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

// load reads and validates the model header, then the forest that
// follows it, into m and returns the header's labels. The input is
// untrusted disk state: the version and kind must match, and the
// forest and columns must be consistent with the header's feature
// widths so prediction can never index out of range. Callers check the
// class count against their labels.
func (m *model) load(r io.Reader, kind string) ([]string, error) {
	data, err := jsonscan.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("attrib: load %s: %w", kind, err)
	}
	env, forest, err := scanModel(data, kind)
	if err != nil {
		return nil, err
	}
	return m.set(env, forest)
}

// scanModel reads the header line and the forest line exactly as save
// writes them, keys in save's order and no whitespace, through one
// jsonscan cursor: the version first, which must be FormatVersion, then
// the rest of the header, checked before the forest is read. At most
// one newline may follow the forest. Any other input is an error that
// names the byte offset where it left the layout.
func scanModel(data []byte, kind string) (*modelEnvelope, *ml.Forest, error) {
	c := jsonscan.NewCursor(data)
	c.Lit(`{"version":`)
	env := &modelEnvelope{Version: c.Int()}
	if c.OK() && env.Version != FormatVersion {
		return nil, nil, fmt.Errorf("attrib: model format version %d, want %d", env.Version, FormatVersion)
	}
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
	if err := c.Err(); err != nil {
		return nil, nil, fmt.Errorf("attrib: load %s header: %w", kind, err)
	}
	if err := env.check(kind); err != nil {
		return nil, nil, err
	}
	forest, err := ml.ScanForest(&c)
	if err != nil {
		return nil, nil, err
	}
	c.Opt("\n")
	c.End()
	if err := c.Err(); err != nil {
		return nil, nil, fmt.Errorf("attrib: load %s: %w", kind, err)
	}
	return env, forest, nil
}

// check validates a scanned header on its own: the kind, and columns
// that each name one of the vectorizer's features.
func (env *modelEnvelope) check(kind string) error {
	if env.Kind != kind {
		return fmt.Errorf("attrib: model kind %q, want %s", env.Kind, kind)
	}
	for _, col := range env.Cols {
		if col < 0 || col >= env.Vec.NumFeatures() {
			return fmt.Errorf("attrib: header column %d outside the vectorizer's %d features",
				col, env.Vec.NumFeatures())
		}
	}
	return nil
}

// set installs a scanned header and forest into m, once the forest is
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
