package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
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
// class's author label quoted once by encoding/json (HTML escaping,
// U+2028 and invalid UTF-8 included), and the order encoding/json
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
		t.quoted[i], _ = json.Marshal(l) // a string always marshals
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

// sourcePrefix opens the canonical request body.
const sourcePrefix = `{"source":"`

// parseSource is the request decoder's fast path. It accepts only the
// canonical body, {"source":"…"} followed by optional whitespace, whose
// string holds no control bytes or invalid UTF-8 and whose escapes are
// \n \t \r \b \f \" \\ \/ or a \uXXXX outside the surrogate range; what
// it accepts, json.Unmarshal decodes to the same source. Any other body
// (ok=false) is left to json.Unmarshal, which answers it exactly as it
// always has. It makes one pass over the string: a source without
// escapes is one copy of the raw bytes, and from the first escape on,
// runs of plain bytes are copied whole into a builder.
func parseSource(body []byte) (src string, ok bool) {
	if !bytes.HasPrefix(body, []byte(sourcePrefix)) {
		return "", false
	}
	rest := body[len(sourcePrefix):]
	var sb strings.Builder // the decoded source, from the first escape on
	done := 0              // rest[:done] is decoded into sb
	for i := 0; ; {
		for i < len(rest) && plainByte[rest[i]] {
			i++
		}
		if i == len(rest) {
			return "", false
		}
		switch c := rest[i]; {
		case c == '"':
			if !isCloseBrace(rest[i+1:]) {
				return "", false
			}
			if sb.Cap() == 0 {
				return string(rest[:i]), true
			}
			sb.Write(rest[done:i])
			return sb.String(), true
		case c == '\\':
			if sb.Cap() == 0 {
				sb.Grow(len(rest))
			}
			sb.Write(rest[done:i])
			if i+1 == len(rest) {
				return "", false
			}
			if e := unescaped[rest[i+1]]; e != 0 {
				sb.WriteByte(e)
				i += 2
			} else if r, hex := hex4(rest[i+2:]); rest[i+1] == 'u' && hex && utf8.RuneLen(r) > 0 {
				sb.WriteRune(r) // RuneLen is -1 on a surrogate half
				i += 6
			} else {
				return "", false
			}
			done = i
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(rest[i:])
			if r == utf8.RuneError && size == 1 {
				return "", false // invalid UTF-8, which json.Unmarshal replaces
			}
			i += size
		default:
			return "", false // a control byte, which a JSON string may not hold
		}
	}
}

// plainByte marks the bytes a JSON string holds as themselves:
// printable ASCII other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unescaped maps the letter of each one-letter escape to its byte.
var unescaped = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

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

// hex4 decodes the four hex digits that open b.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}
