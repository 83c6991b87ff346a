package cpptok

import (
	"strings"
	"testing"
	"testing/quick"
)

func kinds(toks []Token) []Kind {
	out := make([]Kind, 0, len(toks))
	for _, t := range toks {
		out = append(out, t.Kind)
	}
	return out
}

func texts(toks []Token) []string {
	out := make([]string, 0, len(toks))
	for _, t := range toks {
		out = append(out, t.Text)
	}
	return out
}

func TestScanBasicProgram(t *testing.T) {
	src := `#include <iostream>
using namespace std;
int main() {
    int n; cin >> n;
    cout << n * 2 << endl;
    return 0;
}`
	toks, err := Scan(src)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if toks[len(toks)-1].Kind != KindEOF {
		t.Fatalf("last token = %v, want EOF", toks[len(toks)-1])
	}
	if toks[0].Kind != KindPreproc || toks[0].Text != "#include <iostream>" {
		t.Fatalf("first token = %v, want preproc include", toks[0])
	}
	// "using" and "namespace" are keywords; "std" is an identifier.
	if toks[1].Kind != KindKeyword || toks[1].Text != "using" {
		t.Fatalf("token 1 = %v, want keyword using", toks[1])
	}
	if toks[3].Kind != KindIdent || toks[3].Text != "std" {
		t.Fatalf("token 3 = %v, want ident std", toks[3])
	}
}

func TestScanTokenTable(t *testing.T) {
	tests := []struct {
		name      string
		src       string
		wantKinds []Kind
		wantTexts []string
	}{
		{
			name:      "shift operators vs template close",
			src:       "a >> b << c",
			wantKinds: []Kind{KindIdent, KindPunct, KindIdent, KindPunct, KindIdent, KindEOF},
			wantTexts: []string{"a", ">>", "b", "<<", "c", ""},
		},
		{
			name:      "increment and arrow",
			src:       "p->x++ + ++y",
			wantKinds: []Kind{KindIdent, KindPunct, KindIdent, KindPunct, KindPunct, KindPunct, KindIdent, KindEOF},
			wantTexts: []string{"p", "->", "x", "++", "+", "++", "y", ""},
		},
		{
			name:      "scope resolution",
			src:       "std::vector<int> v;",
			wantKinds: []Kind{KindIdent, KindPunct, KindIdent, KindPunct, KindKeyword, KindPunct, KindIdent, KindPunct, KindEOF},
			wantTexts: []string{"std", "::", "vector", "<", "int", ">", "v", ";", ""},
		},
		{
			name:      "float literals",
			src:       "1.5 2e10 3.25f .5 0x1F 42ll",
			wantKinds: []Kind{KindFloatLit, KindFloatLit, KindFloatLit, KindFloatLit, KindIntLit, KindIntLit, KindEOF},
			wantTexts: []string{"1.5", "2e10", "3.25f", ".5", "0x1F", "42ll", ""},
		},
		{
			name:      "string with escapes",
			src:       `printf("Case #%d: %.6lf\n", i, x);`,
			wantKinds: []Kind{KindIdent, KindPunct, KindStringLit, KindPunct, KindIdent, KindPunct, KindIdent, KindPunct, KindPunct, KindEOF},
			wantTexts: []string{"printf", "(", `"Case #%d: %.6lf\n"`, ",", "i", ",", "x", ")", ";", ""},
		},
		{
			name:      "char literal",
			src:       `char c = '\n';`,
			wantKinds: []Kind{KindKeyword, KindIdent, KindPunct, KindCharLit, KindPunct, KindEOF},
			wantTexts: []string{"char", "c", "=", `'\n'`, ";", ""},
		},
		{
			name:      "line comment",
			src:       "x = 1; // done",
			wantKinds: []Kind{KindIdent, KindPunct, KindIntLit, KindPunct, KindLineComment, KindEOF},
			wantTexts: []string{"x", "=", "1", ";", "// done", ""},
		},
		{
			name:      "block comment spanning lines",
			src:       "/* a\n b */ y",
			wantKinds: []Kind{KindBlockComment, KindIdent, KindEOF},
			wantTexts: []string{"/* a\n b */", "y", ""},
		},
		{
			name:      "ternary",
			src:       "a ? b : c",
			wantKinds: []Kind{KindIdent, KindPunct, KindIdent, KindPunct, KindIdent, KindEOF},
			wantTexts: []string{"a", "?", "b", ":", "c", ""},
		},
		{
			name:      "compound assignment",
			src:       "x += y %= z",
			wantKinds: []Kind{KindIdent, KindPunct, KindIdent, KindPunct, KindIdent, KindEOF},
			wantTexts: []string{"x", "+=", "y", "%=", "z", ""},
		},
		{
			name:      "ellipsis",
			src:       "f(int...)",
			wantKinds: []Kind{KindIdent, KindPunct, KindKeyword, KindPunct, KindPunct, KindEOF},
			wantTexts: []string{"f", "(", "int", "...", ")", ""},
		},
		{
			name:      "hash not at line start is punct",
			src:       "x # y",
			wantKinds: []Kind{KindIdent, KindPunct, KindIdent, KindEOF},
			wantTexts: []string{"x", "#", "y", ""},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			toks, err := Scan(tt.src)
			if err != nil {
				t.Fatalf("Scan(%q): %v", tt.src, err)
			}
			gotK, gotT := kinds(toks), texts(toks)
			if len(gotK) != len(tt.wantKinds) {
				t.Fatalf("got %d tokens %v, want %d %v", len(gotK), gotT, len(tt.wantKinds), tt.wantTexts)
			}
			for i := range gotK {
				if gotK[i] != tt.wantKinds[i] || gotT[i] != tt.wantTexts[i] {
					t.Errorf("token %d = (%v, %q), want (%v, %q)", i, gotK[i], gotT[i], tt.wantKinds[i], tt.wantTexts[i])
				}
			}
		})
	}
}

func TestScanPositions(t *testing.T) {
	src := "int x;\n  double y;"
	toks := MustScan(src)
	want := []struct{ line, col int }{
		{1, 1}, {1, 5}, {1, 6}, // int x ;
		{2, 3}, {2, 10}, {2, 11}, // double y ;
	}
	for i, w := range want {
		if toks[i].Line != w.line || toks[i].Col != w.col {
			t.Errorf("token %d (%q) at %d:%d, want %d:%d", i, toks[i].Text, toks[i].Line, toks[i].Col, w.line, w.col)
		}
	}
}

func TestScanPreprocContinuation(t *testing.T) {
	src := "#define MAX(a,b) \\\n  ((a)>(b)?(a):(b))\nint x;"
	toks := MustScan(src)
	if toks[0].Kind != KindPreproc {
		t.Fatalf("token 0 kind = %v, want preproc", toks[0].Kind)
	}
	if !strings.Contains(toks[0].Text, "((a)>(b)") {
		t.Errorf("directive did not span continuation: %q", toks[0].Text)
	}
	if toks[1].Kind != KindKeyword || toks[1].Text != "int" {
		t.Errorf("token 1 = %v, want int", toks[1])
	}
}

func TestScanRawString(t *testing.T) {
	src := `auto s = R"(a "quoted" \ thing)";`
	toks, err := Scan(src)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	var raw *Token
	for i := range toks {
		if toks[i].Kind == KindStringLit {
			raw = &toks[i]
		}
	}
	if raw == nil {
		t.Fatal("no string literal found")
	}
	if raw.Text != `R"(a "quoted" \ thing)"` {
		t.Errorf("raw string = %q", raw.Text)
	}
}

func TestScanUnterminatedReportsError(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{"string", `"abc`},
		{"char", `'a`},
		{"block comment", `/* abc`},
		{"string at newline", "\"abc\nint x;"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			toks, err := Scan(tt.src)
			if err == nil {
				t.Fatalf("Scan(%q) succeeded, want error", tt.src)
			}
			if len(toks) == 0 || toks[len(toks)-1].Kind != KindEOF {
				t.Errorf("tolerant scan should still return tokens ending in EOF, got %v", toks)
			}
		})
	}
}

func TestScanErrorPosition(t *testing.T) {
	_, err := Scan("int x;\n  \"oops\nmore")
	se, ok := err.(*ScanError)
	if !ok {
		t.Fatalf("error type %T, want *ScanError", err)
	}
	if se.Line != 2 || se.Col != 3 {
		t.Errorf("error at %d:%d, want 2:3", se.Line, se.Col)
	}
}

func TestStripComments(t *testing.T) {
	toks := MustScan("// a\nint x; /* b */ y;")
	stripped := StripComments(toks)
	for _, tok := range stripped {
		if tok.IsComment() {
			t.Errorf("comment survived strip: %v", tok)
		}
	}
	if len(stripped) != len(toks)-2 {
		t.Errorf("stripped %d tokens, want 2", len(toks)-len(stripped))
	}
}

// TestScanNeverPanics feeds arbitrary strings to the scanner and checks
// it terminates with an EOF token and sane positions.
func TestScanNeverPanics(t *testing.T) {
	f := func(src string) bool {
		toks, _ := Scan(src)
		if len(toks) == 0 {
			return false
		}
		last := toks[len(toks)-1]
		if last.Kind != KindEOF {
			return false
		}
		for _, tok := range toks {
			if tok.Line < 1 || tok.Col < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestScanTextReassembly checks that concatenating non-EOF token texts
// reproduces the source minus whitespace, for ASCII sources without
// lexical errors.
func TestScanTextReassembly(t *testing.T) {
	src := `#include <cstdio>
int main(){int a=1;double b=2.5;/*mid*/printf("%d %f\n",a,b);return 0;}// end`
	toks, err := Scan(src)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	var got strings.Builder
	for _, tok := range toks {
		got.WriteString(tok.Text)
	}
	want := strings.Map(func(r rune) rune {
		switch r {
		case ' ', '\t', '\n', '\r':
			return -1
		}
		return r
	}, src)
	gotStripped := strings.Map(func(r rune) rune {
		switch r {
		case ' ', '\t', '\n', '\r':
			return -1
		}
		return r
	}, got.String())
	if gotStripped != want {
		t.Errorf("reassembly mismatch:\ngot  %q\nwant %q", gotStripped, want)
	}
}
