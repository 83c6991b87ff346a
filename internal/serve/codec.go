package serve

import (
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"gptattr/internal/jsonscan"
)

// The inference codec. A 200 answer is written by appending to one
// presized buffer, and a canonical request body is decoded by one scan;
// neither goes through encoding/json, whose reflection cost more than
// scoring an answer. Both are pinned byte for byte to encoding/json by
// the differential fuzz tests in codec_test.go: an answer body equals
// json.Marshal(resp) plus a newline, and a request decodes to the same
// source, or fails with the same status and error text, as
// json.Unmarshal into AttributeRequest.

// labelTable is one loaded oracle's share of the answer encoder: each
// class's author label quoted once as encoding/json quotes it (HTML
// escaping, U+2028 and invalid UTF-8 included), and the order encoding/json
// writes a map's keys in. The registry builds one per oracle rung as it
// loads a generation, so a table lives and dies with its generation.
type labelTable struct {
	quoted [][]byte // class i's label as a JSON string
	sorted []int    // the classes in ascending label order
	size   int      // a body capacity that fits any answer of this model
	scores sync.Pool
}

// maxFloatLen bounds one float as answerBuf.float writes it ("-" and 17
// significant digits with a point, or with a point and an exponent
// such as "e-308", or up to 21 integer digits in 'f' form).
const maxFloatLen = 25

// newLabelTable builds the table for an oracle's labels in class order.
// Labels must be distinct, as attrib.LoadOracle guarantees.
func newLabelTable(labels []string) *labelTable {
	t := &labelTable{quoted: make([][]byte, len(labels)), sorted: make([]int, len(labels))}
	// The fixed field names, their punctuation and four numbers.
	t.size = len(`{"author":,"proba":{},"confidence":,"degrade_level":,"calibration":,"model_generation":}`) + 1 + 4*maxFloatLen
	longest := 0
	for i, l := range labels {
		t.quoted[i] = appendQuoted(nil, l)
		t.sorted[i] = i
		t.size += len(t.quoted[i]) + len(`:,`) + maxFloatLen
		longest = max(longest, len(t.quoted[i]))
	}
	t.size += longest
	slices.SortFunc(t.sorted, func(a, b int) int { return strings.Compare(labels[a], labels[b]) })
	n := len(labels)
	t.scores.New = func() any {
		s := make([]float64, n)
		return &s
	}
	return t
}

// appendQuoted appends s quoted as json.Marshal quotes a string:
// \" \\ \b \f \n \r \t, other control bytes and the HTML-sensitive
// < > & as \u00XX, U+2028 and U+2029 as \u2028 and \u2029, and each
// byte of invalid UTF-8 as \ufffd.
func appendQuoted(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0 // s[start:i] is still to be copied
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// answerBuf appends one answer body. err keeps the first value JSON
// cannot carry.
type answerBuf struct {
	b   []byte
	err error
}

// float appends f as encoding/json writes a float64: the shortest
// representation that round-trips, in 'f' form unless its magnitude is
// below 1e-6 or at least 1e21, where it takes 'e' form with a
// single-digit negative exponent unpadded (1e-7, not 1e-07). NaN and
// the infinities fail with json.Marshal's error text, as a 500.
func (a *answerBuf) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if a.err == nil {
			a.err = &StatusError{Code: http.StatusInternalServerError,
				Msg: "encode answer: json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(a.b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	a.b = b
}

// tail appends the fields both answers end with, honouring their
// omitempty tags, the closing brace and the newline Encoder.Encode
// would add.
func (a *answerBuf) tail(level int, calib float64, gen uint64) {
	if level != 0 {
		a.b = append(a.b, `,"degrade_level":`...)
		a.b = strconv.AppendInt(a.b, int64(level), 10)
	}
	if calib != 0 {
		a.b = append(a.b, `,"calibration":`...)
		a.float(calib)
	}
	a.b = append(a.b, `,"model_generation":`...)
	a.b = strconv.AppendUint(a.b, gen, 10)
	a.b = append(a.b, "}\n"...)
}

// encodeAttribute renders the AttributeResponse for class best with
// per-class vote shares proba (one per label, in class order).
func (t *labelTable) encodeAttribute(best int, proba []float64, conf float64, level int, calib float64, gen uint64) (Answer, error) {
	a := answerBuf{b: make([]byte, 0, t.size)}
	a.b = append(a.b, `{"author":`...)
	a.b = append(a.b, t.quoted[best]...)
	a.b = append(a.b, `,"proba":{`...)
	for k, c := range t.sorted {
		if k > 0 {
			a.b = append(a.b, ',')
		}
		a.b = append(a.b, t.quoted[c]...)
		a.b = append(a.b, ':')
		a.float(proba[c])
	}
	a.b = append(a.b, '}')
	if conf != 0 {
		a.b = append(a.b, `,"confidence":`...)
		a.float(conf)
	}
	a.tail(level, calib, gen)
	if a.err != nil {
		return Answer{}, a.err
	}
	return Answer{Body: a.b, Level: level, Generation: gen}, nil
}

// detectAnswerSize fits any DetectResponse body.
const detectAnswerSize = len(`{"chatgpt":false,"confidence":,"degrade_level":,"calibration":,"model_generation":}`) + 1 + 4*maxFloatLen

// encodeDetect renders the DetectResponse.
func encodeDetect(chatgpt bool, conf float64, level int, calib float64, gen uint64) (Answer, error) {
	a := answerBuf{b: make([]byte, 0, detectAnswerSize)}
	a.b = append(a.b, `{"chatgpt":`...)
	a.b = strconv.AppendBool(a.b, chatgpt)
	a.b = append(a.b, `,"confidence":`...)
	a.float(conf)
	a.tail(level, calib, gen)
	if a.err != nil {
		return Answer{}, a.err
	}
	return Answer{Body: a.b, Level: level, Generation: gen}, nil
}

// parseSource is the request decoder's fast path. It accepts only the
// canonical body, {"source":"…"} followed by optional whitespace, whose
// string jsonscan decodes (no control bytes, invalid UTF-8 or surrogate
// escapes); what it accepts, json.Unmarshal decodes to the same source.
// Any other body (ok=false) is left to json.Unmarshal, which answers it
// exactly as it always has.
func parseSource(body []byte) (src string, ok bool) {
	c := jsonscan.NewCursor(body)
	c.Lit(`{"source":`)
	src = c.Str()
	if !c.OK() || !isCloseBrace(c.Rest()) {
		return "", false
	}
	return src, true
}

// isCloseBrace reports whether b is "}" followed by JSON whitespace only.
func isCloseBrace(b []byte) bool {
	if len(b) == 0 || b[0] != '}' {
		return false
	}
	for _, c := range b[1:] {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return false
		}
	}
	return true
}
