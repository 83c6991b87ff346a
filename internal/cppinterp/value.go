// Package cppinterp evaluates the competitive-programming C++ subset
// parsed by cppast against a given stdin, producing stdout. Its purpose
// in this repository is semantic verification: a source-to-source style
// transformation is accepted only if the transformed program produces
// byte-identical output on the challenge's sample inputs — the
// executable form of the paper's "maintaining the original
// functionality" requirement.
package cppinterp

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ValueKind discriminates runtime values.
type ValueKind int

// Value kinds. KindNone is the zero value (no value / void).
const (
	KindNone ValueKind = iota
	KindInt
	KindFloat
	KindString
	KindChar
	KindBool
	KindArray
	KindVector
)

// Value is a runtime value. Arrays and vectors hold element slices by
// pointer so that aliasing (references, indexing) behaves like C++.
type Value struct {
	Kind ValueKind
	I    int64
	F    float64
	S    string
	// Elems backs arrays and vectors. Shared, never copied on
	// assignment of the containing variable (the generator's subset
	// never assigns whole arrays).
	Elems *[]Value
	// ElemKind is the element kind for arrays/vectors.
	ElemKind ValueKind
}

// IntVal constructs an int value.
func IntVal(i int64) Value { return Value{Kind: KindInt, I: i} }

// FloatVal constructs a double value.
func FloatVal(f float64) Value { return Value{Kind: KindFloat, F: f} }

// StringVal constructs a string value.
func StringVal(s string) Value { return Value{Kind: KindString, S: s} }

// BoolVal constructs a bool value.
func BoolVal(b bool) Value {
	if b {
		return Value{Kind: KindBool, I: 1}
	}
	return Value{Kind: KindBool}
}

// CharVal constructs a char value.
func CharVal(c byte) Value { return Value{Kind: KindChar, I: int64(c)} }

// AsFloat converts numeric values to float64.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindFloat:
		return v.F
	default:
		return float64(v.I)
	}
}

// AsInt converts numeric values to int64, truncating floats like a C++
// cast does.
func (v Value) AsInt() int64 {
	switch v.Kind {
	case KindFloat:
		return int64(v.F)
	default:
		return v.I
	}
}

// Truthy reports the C++ boolean interpretation of the value.
func (v Value) Truthy() bool {
	switch v.Kind {
	case KindFloat:
		return v.F != 0
	case KindString:
		return v.S != ""
	default:
		return v.I != 0
	}
}

// coerce converts v to the declared kind k (e.g. initializing an int
// from a double truncates).
func coerce(v Value, k ValueKind) Value {
	if v.Kind == k || k == KindNone {
		return v
	}
	switch k {
	case KindInt:
		return IntVal(v.AsInt())
	case KindFloat:
		return FloatVal(v.AsFloat())
	case KindBool:
		return BoolVal(v.Truthy())
	case KindChar:
		return CharVal(byte(v.AsInt()))
	case KindString:
		if v.Kind == KindChar {
			return StringVal(string(byte(v.I)))
		}
		return v
	default:
		return v
	}
}

// kindOfType maps a declared C++ type string to a value kind plus the
// element kind for containers.
func kindOfType(typ string) (ValueKind, ValueKind) {
	t := strings.TrimSpace(typ)
	t = strings.TrimPrefix(t, "const ")
	t = strings.TrimPrefix(t, "static ")
	t = strings.TrimSuffix(t, " &")
	t = strings.TrimSuffix(t, "&")
	t = strings.TrimSpace(t)
	switch {
	case strings.HasPrefix(t, "vector<"), strings.HasPrefix(t, "std::vector<"):
		inner := t[strings.Index(t, "<")+1 : strings.LastIndex(t, ">")]
		ek, _ := kindOfType(inner)
		return KindVector, ek
	case t == "string" || t == "std::string":
		return KindString, KindNone
	case strings.Contains(t, "double") || strings.Contains(t, "float"):
		return KindFloat, KindNone
	case t == "bool":
		return KindBool, KindNone
	case t == "char":
		return KindChar, KindNone
	case t == "void":
		return KindNone, KindNone
	default:
		// int, long, long long, ll, unsigned, auto, user typedefs —
		// integers are the pragmatic default in this subset.
		return KindInt, KindNone
	}
}

// formatCout renders a value the way operator<< does under the given
// stream state.
func formatCout(v Value, st *streamState) string {
	switch v.Kind {
	case KindFloat:
		if st.fixed {
			return strconv.FormatFloat(v.F, 'f', st.precision, 64)
		}
		return formatDefaultDouble(v.F, st.precision)
	case KindString:
		return v.S
	case KindChar:
		return string(byte(v.I))
	case KindBool:
		// C++ streams print bools as 1/0 by default.
		return strconv.FormatInt(v.I, 10)
	default:
		return strconv.FormatInt(v.I, 10)
	}
}

// formatDefaultDouble mimics C++'s default ostream double formatting:
// up to `prec` significant digits, fixed or scientific as %g chooses,
// trailing zeros trimmed.
func formatDefaultDouble(f float64, prec int) string {
	if prec <= 0 {
		prec = 6
	}
	if math.IsInf(f, 1) {
		return "inf"
	}
	if math.IsInf(f, -1) {
		return "-inf"
	}
	if math.IsNaN(f) {
		return "nan"
	}
	s := strconv.FormatFloat(f, 'g', prec, 64)
	// Go prints exponents as e+06; C++ as e+06 too — close enough for
	// byte comparison between two programs interpreted by this same
	// interpreter, which is all the verifier needs.
	return s
}

func (k ValueKind) String() string {
	switch k {
	case KindNone:
		return "void"
	case KindInt:
		return "int"
	case KindFloat:
		return "double"
	case KindString:
		return "string"
	case KindChar:
		return "char"
	case KindBool:
		return "bool"
	case KindArray:
		return "array"
	case KindVector:
		return "vector"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}
