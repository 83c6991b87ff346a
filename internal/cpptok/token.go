// Package cpptok implements a lexical scanner for a practical subset of
// C++ sufficient for code stylometry: identifiers, keywords, numeric and
// string literals, operators, comments, and preprocessor directives, all
// with exact source positions.
//
// The scanner is layout-aware: comments are first-class tokens and every
// token carries its line and column, so downstream packages can recover
// lexical and layout features (indentation, brace placement, comment
// density) without re-reading the source.
package cpptok

import "fmt"

// Kind classifies a token.
type Kind int

// Token kinds. KindInvalid is the zero value so that an uninitialized
// Token is recognizably invalid.
const (
	KindInvalid Kind = iota
	KindIdent
	KindKeyword
	KindIntLit
	KindFloatLit
	KindStringLit
	KindCharLit
	KindPunct
	KindLineComment
	KindBlockComment
	KindPreproc
	KindEOF
)

var kindNames = map[Kind]string{
	KindInvalid:      "invalid",
	KindIdent:        "ident",
	KindKeyword:      "keyword",
	KindIntLit:       "int",
	KindFloatLit:     "float",
	KindStringLit:    "string",
	KindCharLit:      "char",
	KindPunct:        "punct",
	KindLineComment:  "line-comment",
	KindBlockComment: "block-comment",
	KindPreproc:      "preproc",
	KindEOF:          "eof",
}

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Token is a single lexical element with its position in the source.
type Token struct {
	Kind Kind
	// Text is the exact source text of the token, including comment
	// delimiters and string quotes.
	Text string
	// Line is the 1-based source line of the token's first byte.
	Line int
	// Col is the 1-based source column of the token's first byte.
	Col int
}

// String renders the token for diagnostics.
func (t Token) String() string {
	return fmt.Sprintf("%d:%d %s %q", t.Line, t.Col, t.Kind, t.Text)
}

// IsComment reports whether the token is a line or block comment.
func (t Token) IsComment() bool {
	return t.Kind == KindLineComment || t.Kind == KindBlockComment
}

// Is reports whether the token is a punctuation or keyword token with
// exactly the given text.
func (t Token) Is(text string) bool {
	return (t.Kind == KindPunct || t.Kind == KindKeyword) && t.Text == text
}

// cppKeywords is the set of C++ keywords recognized by the scanner. It
// covers C++17 plus the alternative operator spellings.
var cppKeywords = map[string]bool{
	"alignas": true, "alignof": true, "and": true, "and_eq": true,
	"asm": true, "auto": true, "bitand": true, "bitor": true,
	"bool": true, "break": true, "case": true, "catch": true,
	"char": true, "char16_t": true, "char32_t": true, "class": true,
	"compl": true, "const": true, "const_cast": true, "constexpr": true,
	"continue": true, "decltype": true, "default": true, "delete": true,
	"do": true, "double": true, "dynamic_cast": true, "else": true,
	"enum": true, "explicit": true, "export": true, "extern": true,
	"false": true, "float": true, "for": true, "friend": true,
	"goto": true, "if": true, "inline": true, "int": true,
	"long": true, "mutable": true, "namespace": true, "new": true,
	"noexcept": true, "not": true, "not_eq": true, "nullptr": true,
	"operator": true, "or": true, "or_eq": true, "private": true,
	"protected": true, "public": true, "register": true,
	"reinterpret_cast": true, "return": true, "short": true,
	"signed": true, "sizeof": true, "static": true,
	"static_assert": true, "static_cast": true, "struct": true,
	"switch": true, "template": true, "this": true, "thread_local": true,
	"throw": true, "true": true, "try": true, "typedef": true,
	"typeid": true, "typename": true, "union": true, "unsigned": true,
	"using": true, "virtual": true, "void": true, "volatile": true,
	"wchar_t": true, "while": true, "xor": true, "xor_eq": true,
}

// controlKeywords are the branching/looping keywords used by stylometric
// features ("ln(numKeyword/length)" in Caliskan-Islam et al.).
var controlKeywords = []string{"do", "if", "else", "switch", "for", "while"}

// ControlKeywords returns the control-flow keywords tracked by the
// classic stylometry feature set, in stable order.
func ControlKeywords() []string {
	out := make([]string, len(controlKeywords))
	copy(out, controlKeywords)
	return out
}
