// Package jsonscan reads canonical JSON — the bytes encoding/json's
// Marshal and Encoder write — in one left-to-right pass, without
// reflection. It serves readers that know the exact layout they
// expect: the caller walks the input with a Cursor, matching fixed
// punctuation and keys as literals and reading values in order. The
// first mismatch marks the cursor failed, every later call is a no-op,
// and Err names the byte offset where the input left the layout. Model
// files have one writer, so their loader rejects such input outright;
// the serving request decoder, whose clients may send any valid JSON,
// hands it to encoding/json instead.
//
// A Cursor accepts a value only where encoding/json decodes the same
// bytes to the same value:
// numbers follow the JSON grammar and floats parse through
// strconv.ParseFloat as encoding/json's do, so every bit matches;
// strings hold no control bytes, invalid UTF-8 or surrogate escapes
// (which encoding/json rewrites to U+FFFD).
package jsonscan

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ReadAll reads r to EOF, as io.ReadAll does, but into one buffer of
// the right size when r reports its size: a file through Stat, or a
// bytes.Reader or bytes.Buffer through Len. io.ReadAll's growth would
// otherwise allocate about four times a model file's size to read it.
func ReadAll(r io.Reader) ([]byte, error) {
	size := 0
	switch s := r.(type) {
	case interface{ Len() int }:
		size = s.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := s.Stat(); err == nil && fi.Mode().IsRegular() {
			size = int(fi.Size())
		}
	}
	// The spare MinRead bytes let ReadFrom see EOF without growing.
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// Cursor is a read position in a JSON document.
type Cursor struct {
	b   []byte
	pos int
	bad bool
}

// NewCursor returns a cursor at the start of b.
func NewCursor(b []byte) Cursor { return Cursor{b: b} }

// OK reports whether every read so far matched.
func (c *Cursor) OK() bool { return !c.bad }

// Err returns nil if every read so far matched, or an error naming the
// byte offset of the first read that did not.
func (c *Cursor) Err() error {
	if !c.bad {
		return nil
	}
	return errors.New("malformed at byte " + strconv.Itoa(c.pos))
}

// End fails the cursor unless the input is consumed.
func (c *Cursor) End() {
	if c.pos != len(c.b) {
		c.bad = true
	}
}

// Rest returns the unread input.
func (c *Cursor) Rest() []byte { return c.b[c.pos:] }

// Opt consumes s if the input continues with it, and reports whether it
// did. A mismatch does not fail the cursor: Opt reads optional keys.
func (c *Cursor) Opt(s string) bool {
	rest := c.b[c.pos:]
	if c.bad || len(rest) < len(s) || string(rest[:len(s)]) != s {
		return false
	}
	c.pos += len(s)
	return true
}

// Lit consumes s, failing the cursor if the input does not continue
// with it.
func (c *Cursor) Lit(s string) {
	if !c.Opt(s) {
		c.bad = true
	}
}

// Next steps through the elements of an array whose opening bracket is
// consumed:
//
//	c.Lit("[")
//	for i := 0; c.Next(i); i++ {
//		v := c.Int()
//	}
//
// Before element i it consumes the closing bracket and returns false,
// or consumes the ',' that separates element i from element i-1 and
// returns true.
func (c *Cursor) Next(i int) bool {
	if c.bad || c.pos == len(c.b) {
		c.bad = true
		return false
	}
	switch ch := c.b[c.pos]; {
	case ch == ']':
		c.pos++
		return false
	case i == 0:
		return true
	case ch == ',':
		c.pos++
		return true
	}
	c.bad = true
	return false
}

// number consumes one JSON number and returns its text.
func (c *Cursor) number() []byte {
	if c.bad {
		return nil
	}
	b, i := c.b, c.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		c.bad = true
		return nil
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			c.bad = true
			return nil
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			c.bad = true
			return nil
		}
		i = j
	}
	tok := b[c.pos:i]
	c.pos = i
	return tok
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// integer consumes a JSON integer that fits in a signed bits-bit
// integer, in one pass over its digits. Eighteen digits always fit in
// an int64; longer integers, and numbers with a fraction or an
// exponent, fail the cursor.
func (c *Cursor) integer(bits uint) int64 {
	if c.bad {
		return 0
	}
	b, i := c.b, c.pos
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var v int64
	for ; i < len(b) && i-start < 18 && '0' <= b[i] && b[i] <= '9'; i++ {
		v = v*10 + int64(b[i]-'0')
	}
	if i == start || b[start] == '0' && i-start > 1 ||
		i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E' || '0' <= b[i] && b[i] <= '9') {
		c.bad = true
		return 0
	}
	if neg {
		v = -v
	}
	if bits < 64 && (v < -1<<(bits-1) || v >= 1<<(bits-1)) {
		c.bad = true
		return 0
	}
	c.pos = i
	return v
}

// Int consumes a JSON integer that fits in an int.
func (c *Cursor) Int() int { return int(c.integer(strconv.IntSize)) }

// Int32 consumes a JSON integer that fits in an int32.
func (c *Cursor) Int32() int32 { return int32(c.integer(32)) }

// Float consumes a JSON number as a float64, parsed as encoding/json
// parses it. A number out of float64's range fails the cursor.
func (c *Cursor) Float() float64 {
	tok := c.number()
	if c.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		c.bad = true
		return 0
	}
	return f
}

// Str consumes a JSON string and returns its value. A string without
// escapes is one copy of its raw bytes. At the first escape a builder
// is sized to the raw string (found with a byte search for its closing
// quote), and from there runs of plain bytes are copied into it whole.
// The escapes it decodes are \n \t \r \b \f \" \\ \/ and a \uXXXX
// outside the surrogate range.
func (c *Cursor) Str() string {
	c.Lit(`"`)
	if c.bad {
		return ""
	}
	rest := c.b[c.pos:]
	var sb strings.Builder // the decoded string, from the first escape on
	done := 0              // rest[:done] is decoded into sb
	for i := 0; ; {
		for i < len(rest) && plainByte[rest[i]] {
			i++
		}
		if i == len(rest) {
			c.bad = true
			return ""
		}
		switch ch := rest[i]; {
		case ch == '"':
			c.pos += i + 1
			if sb.Cap() == 0 {
				return string(rest[:i])
			}
			sb.Write(rest[done:i])
			return sb.String()
		case ch == '\\':
			if sb.Cap() == 0 {
				sb.Grow(closingQuote(rest, i)) // escapes only shrink the string
			}
			sb.Write(rest[done:i])
			if i+1 == len(rest) {
				c.bad = true
				return ""
			}
			if e := unescaped[rest[i+1]]; e != 0 {
				sb.WriteByte(e)
				i += 2
			} else if r, hex := hex4(rest[i+2:]); rest[i+1] == 'u' && hex && utf8.RuneLen(r) > 0 {
				sb.WriteRune(r) // RuneLen is -1 on a surrogate half
				i += 6
			} else {
				c.bad = true
				return ""
			}
			done = i
		case ch >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(rest[i:])
			if r == utf8.RuneError && size == 1 {
				c.bad = true // invalid UTF-8, which encoding/json replaces
				return ""
			}
			i += size
		default:
			c.bad = true // a control byte, which a JSON string may not hold
			return ""
		}
	}
}

// closingQuote returns the index in b of the first quote at or after i
// that no backslash escapes, or len(b) if there is none.
func closingQuote(b []byte, i int) int {
	for {
		j := bytes.IndexByte(b[i:], '"')
		if j < 0 {
			return len(b)
		}
		j += i
		k := j
		for k > 0 && b[k-1] == '\\' {
			k--
		}
		if (j-k)%2 == 0 {
			return j
		}
		i = j + 1
	}
}

// Ints consumes an array of integers that fit in an int. An empty
// array gives an empty, non-nil slice, as encoding/json decodes it.
func (c *Cursor) Ints() []int {
	out := []int{}
	c.Lit("[")
	for i := 0; c.Next(i); i++ {
		out = append(out, c.Int())
	}
	return out
}

// Strs consumes an array of strings, empty and non-nil for [].
func (c *Cursor) Strs() []string {
	out := []string{}
	c.Lit("[")
	for i := 0; c.Next(i); i++ {
		out = append(out, c.Str())
	}
	return out
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
