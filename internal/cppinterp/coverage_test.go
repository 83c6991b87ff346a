package cppinterp

import (
	"math"
	"strings"
	"testing"
)

func TestValueHelpers(t *testing.T) {
	if !StringVal("x").Truthy() || StringVal("").Truthy() {
		t.Error("string truthiness wrong")
	}
	if !FloatVal(0.5).Truthy() || FloatVal(0).Truthy() {
		t.Error("float truthiness wrong")
	}
	if coerce(FloatVal(3.9), KindInt).I != 3 {
		t.Error("float->int coercion should truncate")
	}
	if coerce(IntVal(65), KindChar).I != 65 {
		t.Error("int->char coercion wrong")
	}
	if coerce(CharVal('A'), KindString).S != "A" {
		t.Error("char->string coercion wrong")
	}
	if coerce(IntVal(2), KindBool).I != 1 {
		t.Error("int->bool coercion wrong")
	}
	for _, k := range []ValueKind{KindNone, KindInt, KindFloat, KindString, KindChar, KindBool, KindArray, KindVector, ValueKind(42)} {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
}

func TestFormatDefaultDoubleSpecials(t *testing.T) {
	st := &streamState{precision: 6}
	tests := []struct {
		v    float64
		want string
	}{
		{math.Inf(1), "inf"},
		{math.Inf(-1), "-inf"},
		{2.5, "2.5"},
	}
	for _, tt := range tests {
		if got := formatCout(FloatVal(tt.v), st); got != tt.want {
			t.Errorf("formatCout(%v) = %q, want %q", tt.v, got, tt.want)
		}
	}
	if got := formatCout(FloatVal(math.NaN()), st); got != "nan" {
		t.Errorf("NaN formats as %q", got)
	}
	// Zero precision falls back to 6 significant digits.
	st0 := &streamState{}
	if got := formatCout(FloatVal(1.0/3.0), st0); got != "0.333333" {
		t.Errorf("default precision format = %q", got)
	}
}

func TestUnescapeCpp(t *testing.T) {
	tests := []struct {
		lit  string
		want string
	}{
		{`"a\tb"`, "a\tb"},
		{`"r\rn"`, "r\rn"},
		{`"q\"q"`, `q"q`},
		{`"back\\slash"`, `back\slash`},
		{`"nul\0end"`, "nul\x00end"},
		{`"unknown\zescape"`, "unknownzescape"},
		{`R"(raw \n stays)"`, `raw \n stays`},
	}
	for _, tt := range tests {
		got, err := unescapeCpp(tt.lit)
		if err != nil {
			t.Fatalf("unescapeCpp(%q): %v", tt.lit, err)
		}
		if got != tt.want {
			t.Errorf("unescapeCpp(%q) = %q, want %q", tt.lit, got, tt.want)
		}
	}
	if _, err := unescapeCpp("x"); err == nil {
		t.Error("short literal accepted")
	}
	if _, err := unescapeCpp(`R"(broken`); err == nil {
		t.Error("malformed raw string accepted")
	}
}

// TestRunUnsupportedConstructs exercises the error paths for constructs
// outside the interpreter's subset.
func TestRunUnsupportedConstructs(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{"pointer deref", "int main(){int x=1;int y=*x;return y;}"},
		{"unknown function", "int main(){zork(1);return 0;}"},
		{"unknown method", "#include <vector>\nusing namespace std;\nint main(){vector<int> v;v.reserve(4);return 0;}"},
		{"sort non-container", "#include <algorithm>\nusing namespace std;\nint main(){int x=1;sort(x.begin(),x.end());return 0;}"},
		{"call of bodyless prototype", "int f(int);\nint main(){return f(1);}"},
		{"lambda region", "int main(){auto f=[](int v){return v;};return 0;}"},
		{"string element assign", "#include <string>\nusing namespace std;\nint main(){string s=\"ab\";s[0]='c';return 0;}"},
		{"indexing scalar", "int main(){int x=1;x[0]=2;return 0;}"},
		{"printf missing arg", "#include <cstdio>\nint main(){printf(\"%d %d\\n\", 1);return 0;}"},
		{"printf bad verb", "#include <cstdio>\nint main(){printf(\"%q\\n\", 1);return 0;}"},
		{"scanf missing arg", "#include <cstdio>\nint main(){int a;scanf(\"%d %d\",&a);return 0;}"},
		{"negative array size", "int main(){int n=-1;int a[n];return 0;}"},
		{"assign to rvalue", "int main(){int a=1;(a+1)=2;return a;}"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Run(tt.src, "1 2 3"); err == nil {
				t.Errorf("Run succeeded for unsupported construct")
			}
		})
	}
}

func TestRunMoreBuiltinsAndIO(t *testing.T) {
	tests := []struct {
		name  string
		src   string
		stdin string
		want  string
	}{
		{
			name: "puts and putchar",
			src:  "#include <cstdio>\nint main(){puts(\"hello\");putchar('!');return 0;}",
			want: "hello\n!",
		},
		{
			name:  "cin reads char and string",
			src:   "#include <iostream>\n#include <string>\nusing namespace std;\nint main(){char c;string w;cin>>c>>w;cout<<c<<\"/\"<<w<<endl;}",
			stdin: " x  word ",
			want:  "x/word\n",
		},
		{
			name:  "scanf char and string",
			src:   "#include <cstdio>\nint main(){char c;char s[2];scanf(\" %c %s\",&c,&s[0]);printf(\"%c\\n\",c);}",
			stdin: "z token",
			want:  "z\n",
		},
		{
			name: "printf hex and string",
			src:  "#include <cstdio>\nint main(){printf(\"%x %s\\n\", 255, \"ok\");}",
			want: "ff ok\n",
		},
		{
			name: "printf e and g verbs",
			src:  "#include <cstdio>\nint main(){printf(\"%e %g\\n\", 1.5, 0.25);}",
			want: "1.500000e+00 0.25\n",
		},
		{
			name: "sizeof is tolerated",
			src:  "#include <iostream>\nusing namespace std;\nint main(){int x = sizeof(int);cout<<(x>=0?1:0)<<endl;}",
			want: "1\n",
		},
		{
			name: "cerr goes nowhere",
			src:  "#include <iostream>\nusing namespace std;\nint main(){cerr<<\"debug\"<<endl;cout<<1<<endl;}",
			want: "1\n",
		},
		{
			name: "scientific manipulator resets fixed",
			src:  "#include <iostream>\n#include <iomanip>\nusing namespace std;\nint main(){cout<<fixed<<setprecision(2)<<1.5<<\" \"<<scientific<<1.5<<endl;}",
			want: "1.50 1.5\n",
		},
		{
			name: "vector init list",
			src:  "#include <iostream>\n#include <vector>\nusing namespace std;\nint main(){vector<int> v = {3, 1, 2};cout<<v[0]<<v[1]<<v[2]<<endl;}",
			want: "312\n",
		},
		{
			name: "vector fill constructor",
			src:  "#include <iostream>\n#include <vector>\nusing namespace std;\nint main(){vector<int> v(3, 7);cout<<v[0]+v[1]+v[2]<<endl;}",
			want: "21\n",
		},
		{
			name: "string length alias",
			src:  "#include <iostream>\n#include <string>\nusing namespace std;\nint main(){string s=\"abcd\";cout<<s.length()<<endl;}",
			want: "4\n",
		},
		{
			name: "shift operators",
			src:  "#include <iostream>\nusing namespace std;\nint main(){int x=1;int y=(x<<4)>>2;cout<<y<<endl;}",
			want: "4\n",
		},
		{
			name: "compound bit assignment",
			src:  "#include <iostream>\nusing namespace std;\nint main(){int x=12;x&=10;x|=1;x^=2;cout<<x<<endl;}",
			want: "11\n",
		},
		{
			name: "unary not and complement",
			src:  "#include <iostream>\nusing namespace std;\nint main(){cout<<(!0)<<(!5)<<(~0)<<endl;}",
			want: "10-1\n",
		},
		{
			name: "float pre-increment",
			src:  "#include <cstdio>\nint main(){double d=1.5;++d;d--;printf(\"%.1f\\n\",d);}",
			want: "1.5\n",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Run(tt.src, tt.stdin)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if got != tt.want {
				t.Errorf("output = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestLoadTypedefEdgeCases(t *testing.T) {
	src := `typedef long long ll;
typedef ll big;
int main() { big x = 5; return 0; }`
	if _, err := Run(src, ""); err != nil {
		t.Fatalf("chained typedef failed: %v", err)
	}
	// Malformed typedef is tolerated (ignored).
	if _, err := Run("typedef ;\nint main(){return 0;}", ""); err != nil {
		t.Fatalf("malformed typedef not tolerated: %v", err)
	}
}

func TestRunErrorMessagesCarryContext(t *testing.T) {
	_, err := Run("int main(){int a[2];int x=a[9];return x;}", "")
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("error = %v, want index out of range", err)
	}
}
