package jsonscan

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// readers are the Cursor's value readers, each with the Go type
// encoding/json decodes the same value into.
var readers = []struct {
	name string
	read func(*Cursor) any
	into func() any
}{
	{"Int", func(c *Cursor) any { return c.Int() }, func() any { return new(int) }},
	{"Int32", func(c *Cursor) any { return c.Int32() }, func() any { return new(int32) }},
	{"Float", func(c *Cursor) any { return c.Float() }, func() any { return new(float64) }},
	{"Str", func(c *Cursor) any { return c.Str() }, func() any { return new(string) }},
	{"Ints", func(c *Cursor) any { return c.Ints() }, func() any { return new([]int) }},
	{"Strs", func(c *Cursor) any { return c.Strs() }, func() any { return new([]string) }},
}

// sameAsJSON checks one input against every reader: where a reader
// consumes the whole input, json.Unmarshal into its type must succeed
// with an equal value (floats bit for bit). It returns the readers that
// accepted.
func sameAsJSON(t *testing.T, data []byte) []string {
	var took []string
	for _, r := range readers {
		c := NewCursor(data)
		got := r.read(&c)
		if c.End(); !c.OK() {
			continue
		}
		took = append(took, r.name)
		want := r.into()
		if err := json.Unmarshal(data, want); err != nil {
			t.Fatalf("%s accepted %q, which json.Unmarshal rejects: %v", r.name, data, err)
		}
		w := reflect.ValueOf(want).Elem().Interface()
		if f, ok := got.(float64); ok {
			if math.Float64bits(f) != math.Float64bits(w.(float64)) {
				t.Fatalf("Float(%q) = %v, json.Unmarshal %v", data, f, w)
			}
		} else if !reflect.DeepEqual(got, w) {
			t.Fatalf("%s(%q) = %#v, json.Unmarshal %#v", r.name, data, got, w)
		}
	}
	return took
}

// TestCursorMatchesJSON pins which readers take each input, and that
// every value taken is encoding/json's.
func TestCursorMatchesJSON(t *testing.T) {
	for _, tc := range []struct {
		in   string
		took string // the readers that consume all of in
	}{
		{`0`, "Int Int32 Float"},
		{`-0`, "Int Int32 Float"},
		{`2147483647`, "Int Int32 Float"},
		{`2147483648`, "Int Float"},
		{`-2147483648`, "Int Int32 Float"},
		{`-2147483649`, "Int Float"},
		{`999999999999999999`, "Int Float"},
		{`-999999999999999999`, "Int Float"},
		{`1000000000000000000`, "Float"}, // nineteen digits: left to encoding/json
		{`1.5`, "Float"},
		{`-5.457435129295655`, "Float"},
		{`0.07142857142857142`, "Float"},
		{`1e-7`, "Float"},
		{`1E+300`, "Float"},
		{`4.9e-324`, "Float"},
		{`1e400`, ""}, // out of float64's range
		{`01`, ""},
		{`1.`, ""},
		{`.5`, ""},
		{`1e`, ""},
		{`+1`, ""},
		{`-`, ""},
		{`NaN`, ""},
		{`0x10`, ""},
		{`true`, ""},
		{`false`, ""},
		{`null`, ""},
		{`""`, "Str"},
		{`"ASTBigramTF:BinaryExpr>BinaryExpr"`, "Str"},
		{`"\n\t\r\b\f\"\\\/éé\u0000 "`, "Str"},
		{`"\\"`, "Str"},
		{`"a\\\"b"`, "Str"},
		{`"café"`, "Str"},
		{`"\ud800"`, ""}, // a surrogate half, which encoding/json rewrites
		{"\"\xff\"", ""}, // invalid UTF-8, likewise
		{"\"a\tb\"", ""}, // a raw control byte
		{`"\x41"`, ""},   // not a JSON escape
		{`"unterminated`, ""},
		{`[]`, "Ints Strs"},
		{`[1,-2,3]`, "Ints"},
		{`["a","b>"]`, "Strs"},
		{`[1,]`, ""},
		{`[,1]`, ""},
		{`[1 ,2]`, ""},
		{`[1`, ""},
	} {
		if got := strings.Join(sameAsJSON(t, []byte(tc.in)), " "); got != tc.took {
			t.Errorf("%s: taken by %q, want %q", tc.in, got, tc.took)
		}
	}
}

// FuzzCursorMatchesJSON: on any bytes, whatever a reader consumes
// whole, json.Unmarshal decodes to the same value.
func FuzzCursorMatchesJSON(f *testing.F) {
	for _, s := range []string{`0`, `-12`, `3.25e-2`, `true`, `"a>b\\"`, `[1,2]`, `["x","\n"]`, `"é"`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { sameAsJSON(t, data) })
}

// TestLitOptNext covers the punctuation readers and the sticky failure.
func TestLitOptNext(t *testing.T) {
	c := NewCursor([]byte(`{"a":[1,2],"b":[]}`))
	c.Lit(`{"a":[`)
	var got []int
	for i := 0; c.Next(i); i++ {
		got = append(got, c.Int())
	}
	if c.Opt(`,"z":`) || !c.Opt(`,"b":[`) || c.Next(0) {
		t.Fatal("optional keys or an empty array misread")
	}
	c.Lit("}")
	if c.End(); c.Err() != nil || fmt.Sprint(got) != "[1 2]" {
		t.Fatalf("err %v, got %v", c.Err(), got)
	}

	c = NewCursor([]byte(`[1,2]`))
	c.Lit("{")
	if c.OK() || c.Int() != 0 || c.Opt("[") || c.Next(0) {
		t.Fatal("a failed cursor read on")
	}
	if string(c.Rest()) != `[1,2]` {
		t.Fatalf("a failed read consumed input: rest %q", c.Rest())
	}
}

// TestErrNamesOffset: Err names the offset of the first read that did
// not match, and End fails a cursor short of the input's end there.
func TestErrNamesOffset(t *testing.T) {
	for _, tc := range []struct {
		in, want string
	}{
		{`{"a":[1,2]}`, "<nil>"},
		{`{"a":[1,x]}`, "malformed at byte 8"},
		{`{"b":[1,2]}`, "malformed at byte 0"},
		{`{"a":[1,2]}{}`, "malformed at byte 11"},
		{`{"a":[1,2]`, "malformed at byte 10"},
		{`{"a":[1,2]}}`, "malformed at byte 11"},
	} {
		c := NewCursor([]byte(tc.in))
		c.Lit(`{"a":`)
		c.Ints()
		c.Lit("}")
		c.End()
		if got := fmt.Sprint(c.Err()); got != tc.want {
			t.Errorf("%s: Err() = %s, want %s", tc.in, got, tc.want)
		}
	}
}

// TestReadAll: every reader shape reads back the same bytes, a read
// error is returned, and a sized reader is read into one buffer.
func TestReadAll(t *testing.T) {
	data := bytes.Repeat([]byte("0123456789"), 5000)
	path := filepath.Join(t.TempDir(), "m")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for name, r := range map[string]io.Reader{
		"file":   f,
		"reader": bytes.NewReader(data),
		"buffer": bytes.NewBuffer(append([]byte(nil), data...)),
		"plain":  iotest.OneByteReader(bytes.NewReader(data)),
	} {
		got, err := ReadAll(r)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("%s: %d bytes, %v", name, len(got), err)
		}
	}
	if _, err := ReadAll(iotest.ErrReader(io.ErrUnexpectedEOF)); err != io.ErrUnexpectedEOF {
		t.Errorf("read error: got %v", err)
	}
	if n := testing.AllocsPerRun(10, func() { _, _ = ReadAll(bytes.NewReader(data)) }); n > 2 {
		t.Errorf("ReadAll of a bytes.Reader: %v allocs, want one buffer", n)
	}
}
