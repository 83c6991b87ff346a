package ir

import (
	"math/rand"
	"strings"
	"testing"
)

// horseRace is the paper's Figure 3 program in IR form.
func horseRace() *Program {
	return &Program{
		Body: []Stmt{
			ReadDecl{T: TInt, Vars: []ReadVar{{Name: "dist", Lo: 10, Hi: 1000}, {Name: "count", Lo: 1, Hi: 10}}},
			Decl{Name: "best", T: TFloat, Init: FloatLit{0}},
			CountLoop{Var: "i", From: IntLit{0}, To: Var{"count"}, Body: []Stmt{
				ReadDecl{T: TInt, Vars: []ReadVar{{Name: "pos", Lo: 0, Hi: 9}, {Name: "speed", Lo: 1, Hi: 100}}},
				Assign{Name: "pos", Op: "=", X: Bin{Op: "-", L: Var{"dist"}, R: Var{"pos"}}},
				Assign{Name: "best", Op: "=", X: Call{Fn: "max", Args: []Expr{
					Var{"best"},
					Bin{Op: "/", L: Cast{To: TFloat, X: Var{"pos"}}, R: Cast{To: TFloat, X: Var{"speed"}}},
				}}},
			}},
		},
		Out: Output{X: Bin{Op: "/", L: Cast{To: TFloat, X: Var{"dist"}}, R: Var{"best"}}, T: TFloat, Precision: 6},
	}
}

func TestSynthesizeHorseRace(t *testing.T) {
	run, err := Synthesize(horseRace(), 3, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if run.Cases != 3 {
		t.Errorf("Cases = %d, want 3", run.Cases)
	}
	if !strings.HasPrefix(run.Input, "3\n") {
		t.Errorf("input must start with case count, got %q", run.Input[:10])
	}
	lines := strings.Split(strings.TrimSpace(run.Output), "\n")
	if len(lines) != 3 {
		t.Fatalf("output has %d lines, want 3: %q", len(lines), run.Output)
	}
	for i, ln := range lines {
		if !strings.HasPrefix(ln, "Case #") {
			t.Errorf("line %d = %q lacks Case prefix", i, ln)
		}
		if !strings.Contains(ln, ".") {
			t.Errorf("float output line %d = %q has no decimal point", i, ln)
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	p := horseRace()
	r1, err := Synthesize(p, 5, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	r2, err := Synthesize(p, 5, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if r1.Input != r2.Input || r1.Output != r2.Output {
		t.Error("Synthesize not deterministic for equal seeds")
	}
	r3, err := Synthesize(p, 5, rand.New(rand.NewSource(43)))
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if r1.Input == r3.Input {
		t.Error("different seeds produced identical input")
	}
}

func TestSynthesizeIntProgram(t *testing.T) {
	// Sum of n values.
	p := &Program{
		Body: []Stmt{
			Read(1, 5, "count"),
			Decl{Name: "sum", T: TInt},
			CountLoop{Var: "i", From: IntLit{0}, To: Var{"count"}, Body: []Stmt{
				Read(2, 2, "val"), // constant 2 makes output checkable
				Assign{Name: "sum", Op: "+=", X: Var{"val"}},
			}},
		},
		Out: Output{X: Var{"sum"}, T: TInt},
	}
	run, err := Synthesize(p, 1, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	// count values of 2 => sum = 2*count; parse count from input line 2.
	inLines := strings.Split(strings.TrimSpace(run.Input), "\n")
	count := strings.TrimSpace(inLines[1])
	want := map[string]string{"1": "2", "2": "4", "3": "6", "4": "8", "5": "10"}[count]
	if run.Output != "Case #1: "+want+"\n" {
		t.Errorf("output = %q, want Case #1: %s (count=%s)", run.Output, want, count)
	}
}

func TestWhileLoopAndIf(t *testing.T) {
	// Collatz step count for fixed n=6: 6→3→10→5→16→8→4→2→1 (8 steps).
	p := &Program{
		Body: []Stmt{
			Read(6, 6, "n"),
			Decl{Name: "steps", T: TInt},
			WhileLoop{Cond: Bin{Op: ">", L: Var{"n"}, R: IntLit{1}}, Body: []Stmt{
				If{
					Cond: Bin{Op: "==", L: Bin{Op: "%", L: Var{"n"}, R: IntLit{2}}, R: IntLit{0}},
					Then: []Stmt{Assign{Name: "n", Op: "/=", X: IntLit{2}}},
					Else: []Stmt{Assign{Name: "n", Op: "=", X: Bin{Op: "+", L: Bin{Op: "*", L: IntLit{3}, R: Var{"n"}}, R: IntLit{1}}}},
				},
				Assign{Name: "steps", Op: "+=", X: IntLit{1}},
			}},
		},
		Out: Output{X: Var{"steps"}, T: TInt},
	}
	run, err := Synthesize(p, 1, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if run.Output != "Case #1: 8\n" {
		t.Errorf("collatz(6) output = %q, want Case #1: 8", run.Output)
	}
}

func TestVectorSort(t *testing.T) {
	// Read 3 fixed values, sort, output median.
	p := &Program{
		Body: []Stmt{
			DeclVec{Name: "vals", T: TInt},
			Read(9, 9, "a"),
			Read(1, 1, "b"),
			Read(5, 5, "c"),
			PushBack{Vec: "vals", X: Var{"a"}},
			PushBack{Vec: "vals", X: Var{"b"}},
			PushBack{Vec: "vals", X: Var{"c"}},
			SortVec{Vec: "vals"},
		},
		Out: Output{X: Index{Arr: "vals", Idx: IntLit{1}}, T: TInt},
	}
	run, err := Synthesize(p, 1, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if run.Output != "Case #1: 5\n" {
		t.Errorf("median output = %q, want Case #1: 5", run.Output)
	}
}

func TestArrayIndexing(t *testing.T) {
	// Histogram of remainders mod 3 for fixed reads.
	p := &Program{
		Body: []Stmt{
			DeclArray{Name: "cnt", T: TInt, Size: IntLit{3}},
			Read(7, 7, "x"), // 7 % 3 == 1
			AssignIndex{Arr: "cnt", Idx: Bin{Op: "%", L: Var{"x"}, R: IntLit{3}}, Op: "+=", X: IntLit{1}},
			AssignIndex{Arr: "cnt", Idx: IntLit{1}, Op: "+=", X: IntLit{10}},
		},
		Out: Output{X: Index{Arr: "cnt", Idx: IntLit{1}}, T: TInt},
	}
	run, err := Synthesize(p, 1, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if run.Output != "Case #1: 11\n" {
		t.Errorf("output = %q, want Case #1: 11", run.Output)
	}
}

func TestSynthesizeErrors(t *testing.T) {
	tests := []struct {
		name string
		p    *Program
	}{
		{
			name: "undefined variable",
			p: &Program{
				Body: []Stmt{Assign{Name: "ghost", Op: "=", X: IntLit{1}}},
				Out:  Output{X: IntLit{0}, T: TInt},
			},
		},
		{
			name: "division by zero",
			p: &Program{
				Body: []Stmt{Decl{Name: "x", T: TInt, Init: Bin{Op: "/", L: IntLit{1}, R: IntLit{0}}}},
				Out:  Output{X: Var{"x"}, T: TInt},
			},
		},
		{
			name: "index out of range",
			p: &Program{
				Body: []Stmt{
					DeclArray{Name: "a", T: TInt, Size: IntLit{2}},
					AssignIndex{Arr: "a", Idx: IntLit{5}, Op: "=", X: IntLit{1}},
				},
				Out: Output{X: IntLit{0}, T: TInt},
			},
		},
		{
			name: "infinite while hits budget",
			p: &Program{
				Body: []Stmt{
					Decl{Name: "x", T: TInt, Init: IntLit{1}},
					WhileLoop{Cond: Bin{Op: ">", L: Var{"x"}, R: IntLit{0}}, Body: []Stmt{
						Assign{Name: "x", Op: "+=", X: IntLit{1}},
					}},
				},
				Out: Output{X: Var{"x"}, T: TInt},
			},
		},
		{
			name: "bad read bounds",
			p: &Program{
				Body: []Stmt{ReadDecl{T: TInt, Vars: []ReadVar{{Name: "x", Lo: 5, Hi: 2}}}},
				Out:  Output{X: Var{"x"}, T: TInt},
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Synthesize(tt.p, 1, rand.New(rand.NewSource(1))); err == nil {
				t.Error("Synthesize succeeded, want error")
			}
		})
	}
	if _, err := Synthesize(horseRace(), 0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero cases accepted")
	}
}

func TestFormatCaseLine(t *testing.T) {
	if got := FormatCaseLine(3, 2.5, 0, TFloat, 6); got != "Case #3: 2.500000\n" {
		t.Errorf("float line = %q", got)
	}
	if got := FormatCaseLine(1, 0, 42, TInt, 0); got != "Case #1: 42\n" {
		t.Errorf("int line = %q", got)
	}
	if got := FormatCaseLine(2, 1.0/3.0, 0, TFloat, 0); got != "Case #2: 0.333333\n" {
		t.Errorf("default precision line = %q", got)
	}
}

func TestReadShorthand(t *testing.T) {
	rd := Read(1, 9, "a", "b")
	if rd.T != TInt || len(rd.Vars) != 2 || rd.Vars[1].Name != "b" || rd.Vars[0].Hi != 9 {
		t.Errorf("Read shorthand wrong: %+v", rd)
	}
	rf := ReadF(0, 5, "x")
	if rf.T != TFloat {
		t.Errorf("ReadF type = %v, want TFloat", rf.T)
	}
}
