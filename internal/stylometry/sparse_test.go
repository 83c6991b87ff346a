package stylometry

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// sameBits reports whether two feature maps hold the same names with
// bit-identical values.
func sameBits(a, b Features) bool {
	if len(a) != len(b) {
		return false
	}
	for name, x := range a {
		y, ok := b[name]
		if !ok || math.Float64bits(x) != math.Float64bits(y) {
			return false
		}
	}
	return true
}

// Vec exposes the scratch's accumulator (valid until the next extract
// or putScratch).
func (sc *scratch) Vec() *FeatureVec { return &sc.vec }

// overflowScratch returns a scratch whose WordUnigram intern table is
// full, so every identifier it has not seen lands in the overflow map.
func overflowScratch() *scratch {
	sc := newScratch()
	for i := 0; i < maxTermIDs; i++ {
		sc.vec.words.space.id(fmt.Sprintf("fill%d", i))
	}
	return sc
}

// sparseCase is one extracted document: its source label, the level
// it was extracted at, and both forms of its features.
type sparseCase struct {
	name string
	f    Features
	sp   *Sparse
}

// sparseCases extracts the golden corpus at every degrade level, plus
// one source through a scratch whose term intern table overflows.
func sparseCases(t testing.TB) []sparseCase {
	t.Helper()
	ctx := context.Background()
	var out []sparseCase
	sc := newScratch()
	for i, src := range goldenSources() {
		for lvl := DegradeNone; lvl <= MaxDegrade; lvl++ {
			if _, err := sc.extractVec(ctx, src, lvl); err != nil {
				continue // the empty/unlexable edge cases
			}
			out = append(out, sparseCase{fmt.Sprintf("golden %d at %v", i, lvl), sc.Vec().Features(), sc.Vec().Sparse()})
		}
	}
	ov := overflowScratch()
	if _, err := ov.extractVec(ctx, benchSrc, DegradeNone); err != nil {
		t.Fatal(err)
	}
	if len(ov.vec.overflow) == 0 {
		t.Fatal("overflow scratch produced no overflow terms")
	}
	out = append(out, sparseCase{"overflowing intern table", ov.Vec().Features(), ov.Vec().Sparse()})
	return out
}

// TestFeatureVecSparseMatchesFeatures pins the snapshot: the map view
// of FeatureVec.Sparse is exactly FeatureVec.Features, overflow terms
// included.
func TestFeatureVecSparseMatchesFeatures(t *testing.T) {
	for _, c := range sparseCases(t) {
		if got := c.sp.Features(); !sameBits(got, c.f) {
			t.Errorf("%s: Sparse().Features() has %d features, Features() %d, or values differ", c.name, len(got), len(c.f))
		}
	}
}

// TestVectorIntoSparseMatchesVectorInto pins the serving vectorizer
// bit-for-bit to the map-based reference row builder, with
// vocabularies that leave some of each document's terms unindexed.
func TestVectorIntoSparseMatchesVectorInto(t *testing.T) {
	cases := sparseCases(t)
	docs := make([]Features, len(cases))
	for i, c := range cases {
		docs[i] = c.f
	}
	for _, cfg := range []VectorizerConfig{{MinDocFreq: 1}, {MinDocFreq: 3}} {
		v := refNewVectorizer(docs, cfg)
		got := make([]float64, v.NumFeatures())
		for _, c := range cases {
			want := refVector(v, c.sp.Features())
			v.VectorIntoSparse(c.sp, got)
			for col := range want {
				if math.Float64bits(got[col]) != math.Float64bits(want[col]) {
					t.Fatalf("%+v, %s: column %s = %v, reference gives %v",
						cfg, c.name, v.FeatureNames()[col], got[col], want[col])
				}
			}
		}
	}
}

// TestFeaturesSparseRoundTrip pins the map -> compact conversion:
// scalars, known terms and names outside any vocabulary all survive,
// the conversion is deterministic, and it copies.
func TestFeaturesSparseRoundTrip(t *testing.T) {
	f := Features{
		"AvgLineLength": 14.5, "ASTNodeTF:If": 0.25, "SemChains0": 0,
		"WordUnigram:for": 2, "LeafTF:x": 1, "not-a-feature": -3,
		"nan": math.NaN(),
	}
	sp := f.Sparse()
	if got := sp.Features(); !sameBits(got, f) {
		t.Fatalf("round trip = %v, want %v", got, f)
	}
	if again := f.Sparse(); !reflect.DeepEqual(again.ids, sp.ids) || !reflect.DeepEqual(again.names, sp.names) {
		t.Errorf("two conversions of one map differ: %v/%v vs %v/%v", sp.ids, sp.names, again.ids, again.names)
	}
	if len(sp.ids) != 3 || len(sp.names) != 4 {
		t.Errorf("%d scalars and %d terms, want 3 and 4", len(sp.ids), len(sp.names))
	}
	f["AvgLineLength"] = 99
	delete(f, "LeafTF:x")
	if got := sp.Features(); got["AvgLineLength"] != 14.5 || got["LeafTF:x"] != 1 {
		t.Errorf("writes to the source map reached the Sparse: %v", got)
	}
	if sp.Sparse() != sp {
		t.Error("(*Sparse).Sparse is not the identity")
	}
	if got := Features(nil).Sparse().Features(); len(got) != 0 {
		t.Errorf("empty map round-trips to %v", got)
	}
}

// TestSparseBytes pins what the cache's byte gauge counts: the IDs,
// values and name headers, never the shared name strings.
func TestSparseBytes(t *testing.T) {
	sp := Features{"AvgLineLength": 1, "SemChains0": 2, "WordUnigram:a-long-identifier-name": 3}.Sparse()
	want := cap(sp.ids)*2 + cap(sp.vals)*8 + cap(sp.names)*16
	if got := sp.Bytes(); got != want || got < 2*2+3*8+16 {
		t.Errorf("Bytes() = %d, want %d", got, want)
	}
}

// TestSparseTermOrderDeterministic pins that one source always yields
// the same Sparse value, term order included: the semantic shape grams
// come out of a map, so they must be emitted in a fixed order.
func TestSparseTermOrderDeterministic(t *testing.T) {
	src := `int g;
int f(int a, int b) { return a * b + g - (a % b); }
int main() {
    int x = 3, y = 4;
    int z = f(x, y) + f(y, x) * 2;
    while (z > 0) { z = z / 2; x += z; }
    g = x > y ? x : y;
    return g + z;
}`
	want, _, err := ExtractSupervised(context.Background(), src, DegradeNone, nil)
	if err != nil {
		t.Fatal(err)
	}
	shapes := 0
	for name := range want.Features() {
		if strings.HasPrefix(name, "SemShape:") {
			shapes++
		}
	}
	if shapes < 8 {
		t.Fatalf("source yields %d SemShape terms; the test needs several", shapes)
	}
	for i := 0; i < 20; i++ {
		got, _, err := ExtractSupervised(context.Background(), src, DegradeNone, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("extraction %d: Sparse differs from the first extraction", i+1)
		}
	}
}

// FuzzScanSparse checks the featcache disk entry's reader. Every
// fixture vector round-trips through MarshalJSON and ScanSparse
// exactly; malformed and old map-shaped entries are rejected; and on
// arbitrary bytes ScanSparse never panics, and whatever it accepts
// encoding/json decodes to the same vector, which again round-trips.
func FuzzScanSparse(f *testing.F) {
	for _, c := range sparseCases(f) {
		data, err := c.sp.MarshalJSON()
		if err != nil {
			f.Fatalf("%s: %v", c.name, err)
		}
		got, err := ScanSparse(data)
		if err != nil || !reflect.DeepEqual(got, c.sp) {
			f.Fatalf("%s: round trip = %v, %v", c.name, got, err)
		}
		old, err := json.Marshal(c.f)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(old)
		f.Add(data[:len(data)/2])
	}
	last := len(scalarNames) - 1
	for _, bad := range []string{
		``, `{"A":1.25}`, `{}`, `null`,
		`{"ids":[2,1],"names":[],"vals":[1,2]}`,
		`{"ids":[1,1],"names":[],"vals":[1,2]}`,
		`{"ids":[-1],"names":[],"vals":[1]}`,
		fmt.Sprintf(`{"ids":[%d],"names":[],"vals":[1]}`, last+1),
		`{"ids":[1],"names":[],"vals":[1,2]}`,
		`{"ids":[1],"names":["LeafTF:x"],"vals":[1]}`,
		`{"ids":[],"names":["A"],"vals":[1]}`,
		`{"ids":[],"names":["AvgLineLength"],"vals":[1]}`,
		`{"ids":[1],"names":[],"vals":[1e400]}`,
		`{"ids":[1],"names":[],"vals":[NaN]}`,
		`{"ids":[1],"names":[],"vals":[1]} `,
		`{"ids":[1],"names":[],"vals":[1]}{}`,
		`{"ids":[1],"names":null,"vals":[1]}`,
		`{"ids":[1],"names":[],"vals":[1]`,
		`{"ids": [1],"names":[],"vals":[1]}`,
	} {
		if sp, err := ScanSparse([]byte(bad)); err == nil {
			f.Errorf("ScanSparse(%s) = %v, want an error", bad, sp)
		}
		f.Add([]byte(bad))
	}
	if _, err := (&Sparse{vals: []float64{1}, names: []string{"LeafTF:\"caf\xe9\""}}).MarshalJSON(); err == nil {
		f.Error("MarshalJSON encoded a term name that is not valid UTF-8")
	}
	if sp, err := ScanSparse([]byte(fmt.Sprintf(`{"ids":[0,%d],"names":[],"vals":[1,2]}`, last))); err != nil || len(sp.ids) != 2 {
		f.Errorf("the first and last scalar IDs: %v, %v", sp, err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := ScanSparse(data)
		if err != nil {
			return
		}
		var dto sparseDTO
		if err := json.Unmarshal(data, &dto); err != nil {
			t.Fatalf("ScanSparse accepted what encoding/json rejects: %v", err)
		}
		if !slices.Equal(dto.IDs, sp.ids) || !slices.Equal(dto.Names, sp.names) || !slices.Equal(dto.Vals, sp.vals) {
			t.Fatalf("ScanSparse read %v, encoding/json %v", sp, dto)
		}
		again, err := sp.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if back, err := ScanSparse(again); err != nil || !reflect.DeepEqual(back, sp) {
			t.Fatalf("re-encoded vector does not round-trip: %v, %v", back, err)
		}
	})
}
