package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gptattr/internal/serve/metrics"
	"gptattr/internal/stylometry"
)

// echoBackend answers every inference with the decoded source as the
// body, so a test can read back exactly what decodeSource produced.
type echoBackend struct{}

func (echoBackend) Infer(_ context.Context, _, src string, _ []byte) (Answer, error) {
	return Answer{Body: []byte(src)}, nil
}
func (echoBackend) Health() HealthResponse      { return HealthResponse{Status: "ok"} }
func (echoBackend) Reload() (uint64, error)     { return 0, nil }
func (echoBackend) Observe(_ *metrics.Registry) {}

// decodeLimit is the body limit of the decoder fuzz server: small, so
// over-limit bodies are cheap seeds.
const decodeLimit = 4096

// refDecode is the request decoder as it was before the fast path:
// read at most limit bytes, json.Unmarshal the whole body, reject an
// empty source. It returns the status, and the error text or the
// decoded source.
func refDecode(body []byte, limit int64) (int, string) {
	_, err := io.ReadAll(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), limit))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return http.StatusRequestEntityTooLarge, "bad request body: " + err.Error()
		}
		return http.StatusBadRequest, "bad request body: " + err.Error()
	}
	var req AttributeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return http.StatusBadRequest, "bad request body: " + err.Error()
	}
	if req.Source == "" {
		return http.StatusBadRequest, "empty source"
	}
	return http.StatusOK, req.Source
}

// shapeSources renders seven pathological source shapes (nested if,
// nested while, an else-if chain, a switch with one case per value,
// flat statements, an && chain, nested parentheses) at depth n.
func shapeSources(n int) []string {
	rep := func(s string) string { return strings.Repeat(s, n) }
	var elseIf, cases, and strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			elseIf.WriteString(" else ")
			and.WriteString(" && ")
		}
		fmt.Fprintf(&elseIf, "if (x == %d) y = %d;", i, i)
		fmt.Fprintf(&cases, "case %d: y = %d; break; ", i, i)
		fmt.Fprintf(&and, "x > %d", i)
	}
	return []string{
		"int main() { int x = 1, y = 0; " + rep("if (x) { ") + "y = y + 1; " + rep("} ") + "return y; }",
		"int main() { int x = 1, y = 0; " + rep("while (x) { ") + "x = 0; " + rep("} ") + "return y; }",
		"int main() { int x = 1, y = 0; " + elseIf.String() + " else y = -1; return y; }",
		"int main() { int x = 1, y = 0; switch (x) { " + cases.String() + "default: y = -1; } return y; }",
		"int main() { int y = 0, i = 1; " + rep("y = y + i; ") + "return y; }",
		"int main() { int x = 1, y = 0; if (" + and.String() + ") y = 1; return y; }",
		"int main() { int x = 1; int y = " + rep("(") + "x" + rep(")") + "; return y; }",
	}
}

// requestBodies renders src as a Go client's json.Marshal does (HTML
// characters as \u003c, \u003e, \u0026) and as an Encoder with HTML
// escaping off does (newline included), the two canonical forms.
func requestBodies(src string) [][]byte {
	marshaled, _ := json.Marshal(AttributeRequest{Source: src})
	var plain bytes.Buffer
	enc := json.NewEncoder(&plain)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(AttributeRequest{Source: src}) // a bytes.Buffer does not fail
	return [][]byte{marshaled, plain.Bytes()}
}

// decodeSeeds is FuzzDecodeSource's seed corpus.
func decodeSeeds() [][]byte {
	seeds := [][]byte{
		// The request-body edge cases the router and replica must agree on.
		[]byte(`{"source":"int x;"} {}`),
		[]byte(``),
		[]byte(`{"source":"` + strings.Repeat("x", decodeLimit) + `"}`),
		[]byte(`{"source":""}`),
		[]byte(`{"source":`),
		// Field names match case-insensitively.
		[]byte(`{"Source":"int x;"}`),
		[]byte(`{"SOURCE":"int x;"}`),
		// Duplicate keys, null, extra fields, whitespace between tokens.
		[]byte(`{"source":"a","source":"b"}`),
		[]byte(`{"source":"a","source":""}`),
		[]byte(`{"source":null}`),
		[]byte(`null`),
		[]byte(`{"source":"int x;","extra":1}`),
		[]byte(`{"extra":[1,{}],"source":"int x;"}`),
		[]byte(`{ "source" : "int x;" }`),
		[]byte(" \t{\"source\":\"int x;\"}\r\n "),
		[]byte("{\"source\":\"int x;\"}\n"),
		[]byte(`{"source":"int x;"}x`),
		[]byte(`{"source":"int x;"`),
		[]byte(`{"source":"int x;}`),
		[]byte(`{"source":1}`),
		[]byte(`{"source":"a"}}`),
		// Escapes: surrogate pairs, lone surrogates, NUL, the short
		// forms, malformed ones.
		[]byte(`{"source":"\ud83d\ude00"}`),
		[]byte(`{"source":"\ud83d"}`),
		[]byte(`{"source":"\ude00x"}`),
		[]byte(`{"source":"\u0000"}`),
		[]byte(`{"source":"\u003cvector\u003e \u0026\u0026 \u2028"}`),
		[]byte(`{"source":"\n\t\r\b\f\"\\\/"}`),
		[]byte(`{"source":"\x"}`),
		[]byte(`{"source":"\u12"}`),
		[]byte(`{"source":"\u12G4"}`),
		[]byte(`{"source":"\"}`),
		[]byte(`{"source":"a\`),
		// Raw bytes JSON strings may not hold, and invalid UTF-8.
		[]byte("{\"source\":\"a\nb\"}"),
		[]byte("{\"source\":\"\x1f\"}"),
		[]byte("{\"source\":\"\x7f\"}"),
		[]byte("{\"source\":\"\xff\"}"),
		[]byte("{\"source\":\"\xc3\"}"),
		[]byte("{\"source\":\"caf\xc3\xa9\"}"),
		[]byte("{\"source\":\"\xed\xa0\x80\"}"),
	}
	for _, src := range shapeSources(6) {
		seeds = append(seeds, requestBodies(src)...)
	}
	return seeds
}

// FuzzDecodeSource: on every body the server's request decoder gives
// the result the plain encoding/json decoder gives: the same status,
// the same error text, the same decoded source. Whatever the fast path
// accepts, json.Unmarshal decodes to the same string.
func FuzzDecodeSource(f *testing.F) {
	for _, s := range decodeSeeds() {
		f.Add(s)
	}
	s, err := New(Config{Backend: echoBackend{}, MaxBodyBytes: decodeLimit})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		if src, ok := parseSource(body); ok {
			var req AttributeRequest
			if err := json.Unmarshal(body, &req); err != nil || req.Source != src {
				t.Fatalf("fast path decoded %q from %q; json.Unmarshal: %q, %v", src, body, req.Source, err)
			}
		}
		wantStatus, want := refDecode(body, decodeLimit)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/attribute", bytes.NewReader(body)))
		if rec.Code != wantStatus {
			t.Fatalf("body %q: status %d, want %d (%s)", body, rec.Code, wantStatus, want)
		}
		got := rec.Body.String()
		if wantStatus != http.StatusOK {
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
				t.Fatalf("body %q: error envelope %q: %v", body, got, err)
			}
			got = er.Error
		}
		if got != want {
			t.Fatalf("body %q: got %q, want %q", body, got, want)
		}
	})
}

// TestFastPathTakesClientBodies: the bodies real clients send take the
// fast path, so the fuzz test above is not vacuously comparing
// json.Unmarshal with itself. Go clients write C++'s <, > and & as
// \u003c, \u003e and \u0026.
func TestFastPathTakesClientBodies(t *testing.T) {
	srcs := append(shapeSources(6), sampleSource(t, 0), sampleSource(t, 1),
		"#include <vector>\nint main() { return 1 < 2 && 3 > 2; } // caf\u00e9 \u2028\t\"q\"\\")
	type fast struct {
		body []byte
		src  string
	}
	var cases []fast
	for _, src := range srcs {
		for _, body := range requestBodies(src) {
			cases = append(cases, fast{body, src})
		}
	}
	// Every escape the fast path decodes, including the ones Go never
	// writes (\/ and upper-case hex), with trailing whitespace.
	cases = append(cases, fast{[]byte(`{"source":"\n\t\r\b\f\"\\\/\u00e9\u00E9\u0000\u2028"}` + " \t\r\n"),
		"\n\t\r\b\f\"\\/\u00e9\u00e9\x00\u2028"})
	for _, c := range cases {
		got, ok := parseSource(c.body)
		if !ok || got != c.src {
			t.Errorf("parseSource(%.60q...) = %.60q, %v; want %.60q, true", c.body, got, ok, c.src)
		}
	}
}

// distinctLabels splits s on '|' into distinct labels, as attrib's
// loader guarantees them.
func distinctLabels(s string) []string {
	var out []string
	seen := map[string]bool{}
	for _, l := range strings.Split(s, "|") {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

// checkEncoded compares an encoder's result with json.Marshal(resp)
// plus the newline, or with the 500 json.Marshal's error becomes.
func checkEncoded(t *testing.T, name string, got Answer, gotErr error, resp any, level int, gen uint64) {
	t.Helper()
	want, err := json.Marshal(resp)
	if err != nil {
		var se *StatusError
		if !errors.As(gotErr, &se) || se.Code != http.StatusInternalServerError || se.Msg != "encode answer: "+err.Error() {
			t.Fatalf("%s %+v: error %v, want a 500 with %q", name, resp, gotErr, "encode answer: "+err.Error())
		}
		return
	}
	if gotErr != nil {
		t.Fatalf("%s %+v: %v", name, resp, gotErr)
	}
	if want = append(want, '\n'); !bytes.Equal(got.Body, want) {
		t.Fatalf("%s:\n got %q\nwant %q", name, got.Body, want)
	}
	if got.Level != level || got.Generation != gen {
		t.Fatalf("%s: level %d generation %d, want %d %d", name, got.Level, got.Generation, level, gen)
	}
}

// FuzzEncodeAnswer: the append encoders write exactly json.Marshal's
// bytes plus a newline for any labels, label order and float values,
// and fail exactly where json.Marshal fails, as a 500.
func FuzzEncodeAnswer(f *testing.F) {
	le := func(fs ...float64) []byte {
		b := make([]byte, 0, 8*len(fs))
		for _, x := range fs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	floats := []float64{0, math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308, 1e-7, 1e-6, 9.99999e-7,
		0.1, 1.0 / 3, 0.5, 1, 123456789.123, 1e20, 1e21, 9.999999999999999e20, 1.7976931348623157e308,
		-1e-7, -0.5, -1e21, math.NaN(), math.Inf(1), math.Inf(-1)}
	for i, x := range floats {
		y := floats[(i+7)%len(floats)]
		f.Add("b|a|c", le(x, y, 0.25), uint(i), x, y, i%3, uint64(i), i%2 == 0)
	}
	f.Add("A017|A002|A105", le(0.1, 0.7, 0.2), uint(1), 0.63, 0.9, 0, uint64(1), false)
	f.Add("<script>|a&b|x>y|\u2028|\u2029|\xff|\ufffd|\x00|\"q\"|\\", le(0.1, 0.2, 0.3), uint(3), 0.2, 0.0, 2, uint64(1<<63), true)
	f.Add("\b|\f|\x1f|\x7f|é\xe2\x80|\u2029\n\r\t", le(0.5), uint(2), 0.5, 0.0, 0, uint64(2), false)
	f.Add("z|y|x|w|v|u|t|s|r|q|p|o", le(1.0/12), uint(11), 1.0/12, 0.5, 1, uint64(0), false)
	f.Add("only", le(1), uint(0), 1.0, 0.0, 0, uint64(7), true)
	f.Add("a|b", le(0.5, 0.5), uint(0), math.Copysign(0, -1), math.Copysign(0, -1), -1, uint64(3), false)
	f.Fuzz(func(t *testing.T, labelList string, scores []byte, best uint, conf, calib float64, level int, gen uint64, chatgpt bool) {
		labels := distinctLabels(labelList)
		// The 8-byte words of scores, cycled over the classes.
		proba := make([]float64, len(labels))
		probaMap := make(map[string]float64, len(labels))
		for i, l := range labels {
			if n := len(scores) / 8; n > 0 {
				proba[i] = math.Float64frombits(binary.LittleEndian.Uint64(scores[8*(i%n):]))
			}
			probaMap[l] = proba[i]
		}
		b := int(best % uint(len(labels)))
		tab := newLabelTable(labels)
		ans, err := tab.encodeAttribute(b, proba, conf, level, calib, gen)
		checkEncoded(t, "attribute", ans, err, AttributeResponse{
			Author: labels[b], Proba: probaMap, Confidence: conf,
			DegradeLevel: level, Calibration: calib, ModelGeneration: gen,
		}, level, gen)
		if len(ans.Body) > tab.size {
			t.Fatalf("%d-byte attribute body outgrew its %d-byte buffer", len(ans.Body), tab.size)
		}
		ans, err = encodeDetect(chatgpt, conf, level, calib, gen)
		checkEncoded(t, "detect", ans, err, DetectResponse{
			ChatGPT: chatgpt, Confidence: conf,
			DegradeLevel: level, Calibration: calib, ModelGeneration: gen,
		}, level, gen)
		if len(ans.Body) > detectAnswerSize {
			t.Fatalf("%d-byte detect body outgrew its %d-byte buffer", len(ans.Body), detectAnswerSize)
		}
	})
}

// TestServedAnswersAreCanonicalJSON: every 200 body the server writes,
// at every ladder rung, is what json.Marshal writes for the answer it
// decodes to (floats round-trip exactly through their shortest form),
// and fits the capacity its encoder reserved.
func TestServedAnswersAreCanonicalJSON(t *testing.T) {
	reg, err := NewRegistry(ladderDir(t))
	if err != nil {
		t.Fatal(err)
	}
	for lvl := stylometry.DegradeNone; lvl <= stylometry.MaxDegrade; lvl++ {
		tab := reg.Current().labels[lvl]
		b := degradeForcingBatcher(lvl)
		t.Cleanup(b.Close)
		s, err := New(Config{Registry: reg, Batcher: b})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			for _, ep := range []string{"attribute", "detect"} {
				rec := httptest.NewRecorder()
				body, _ := json.Marshal(AttributeRequest{Source: sampleSource(t, i)})
				s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+ep, bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Fatalf("level %d %s: status %d: %s", lvl, ep, rec.Code, rec.Body)
				}
				var resp any = &AttributeResponse{}
				limit := tab.size
				if ep == "detect" {
					resp, limit = &DetectResponse{}, detectAnswerSize
				}
				if err := json.Unmarshal(rec.Body.Bytes(), resp); err != nil {
					t.Fatal(err)
				}
				want, _ := json.Marshal(resp)
				if got := rec.Body.Bytes(); !bytes.Equal(got, append(want, '\n')) {
					t.Errorf("level %d %s:\n got %s\nwant %s", lvl, ep, got, want)
				}
				if rec.Body.Len() > limit {
					t.Errorf("level %d %s: %d-byte body outgrew its %d-byte buffer", lvl, ep, rec.Body.Len(), limit)
				}
			}
		}
	}
}
