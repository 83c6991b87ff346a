// Package ir defines the abstract intermediate representation of a
// Code-Jam-style challenge solution: typed reads, loops, conditionals,
// accumulators, containers, and one formatted "Case #i: ..." output per
// test case.
//
// The IR serves three consumers. The codegen package renders an IR
// program into C++ in any author's style (the synthetic-GCJ substrate
// replacing the paper's participant dataset). The evaluator in this
// package executes the IR directly, which (a) synthesizes random
// sample inputs that exactly match the program's read sequence and (b)
// produces ground-truth outputs that every rendered/transformed C++
// variant must reproduce under cppinterp.
package ir

import "fmt"

// Type is the IR scalar type.
type Type int

// Scalar types.
const (
	TInt Type = iota + 1
	TFloat
)

// String returns "int" or "float".
func (t Type) String() string {
	switch t {
	case TInt:
		return "int"
	case TFloat:
		return "float"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Expr is an IR expression.
type Expr interface{ isExpr() }

// Var references a declared variable by its semantic name.
type Var struct{ Name string }

// IntLit is an integer literal.
type IntLit struct{ V int64 }

// FloatLit is a floating literal.
type FloatLit struct{ V float64 }

// Bin is a binary operation. Supported ops: + - * / % < <= > >= == !=
// && ||. Division of two TInt operands truncates (C++ semantics).
type Bin struct {
	Op   string
	L, R Expr
}

// Call invokes a pure builtin: min, max, abs, sqrt, pow.
type Call struct {
	Fn   string
	Args []Expr
}

// Cast converts between TInt and TFloat.
type Cast struct {
	To Type
	X  Expr
}

// Index reads an array or vector element.
type Index struct {
	Arr string
	Idx Expr
}

// Len is the current length of a vector.
type Len struct{ Arr string }

func (Var) isExpr()      {}
func (IntLit) isExpr()   {}
func (FloatLit) isExpr() {}
func (Bin) isExpr()      {}
func (Call) isExpr()     {}
func (Cast) isExpr()     {}
func (Index) isExpr()    {}
func (Len) isExpr()      {}

// Stmt is an IR statement.
type Stmt interface{ isStmt() }

// Decl declares a scalar with an optional initializer (zero when nil).
type Decl struct {
	Name string
	T    Type
	Init Expr
}

// DeclArray declares a fixed-size, zero-initialized array.
type DeclArray struct {
	Name string
	T    Type
	Size Expr
}

// DeclVec declares an empty vector.
type DeclVec struct {
	Name string
	T    Type
}

// ReadVar is one variable read from input; Lo/Hi (inclusive) bound the
// values the input synthesizer generates for it.
type ReadVar struct {
	Name string
	Lo   int64
	Hi   int64
}

// ReadDecl declares the listed scalars and reads them from input in
// order, as a single input line.
type ReadDecl struct {
	Vars []ReadVar
	T    Type
}

// Read is shorthand for a ReadDecl of integers sharing one range.
func Read(lo, hi int64, names ...string) ReadDecl {
	rd := ReadDecl{T: TInt}
	for _, n := range names {
		rd.Vars = append(rd.Vars, ReadVar{Name: n, Lo: lo, Hi: hi})
	}
	return rd
}

// ReadF is shorthand for a ReadDecl of floats sharing one range.
func ReadF(lo, hi int64, names ...string) ReadDecl {
	rd := Read(lo, hi, names...)
	rd.T = TFloat
	return rd
}

// Assign updates a scalar: Op is one of = += -= *= /= %=.
type Assign struct {
	Name string
	Op   string
	X    Expr
}

// AssignIndex updates an array/vector element.
type AssignIndex struct {
	Arr string
	Idx Expr
	Op  string
	X   Expr
}

// PushBack appends to a vector.
type PushBack struct {
	Vec string
	X   Expr
}

// SortVec sorts a vector ascending.
type SortVec struct{ Vec string }

// CountLoop runs Body with Var taking values From..To-1 (half-open).
type CountLoop struct {
	Var  string
	From Expr
	To   Expr
	Body []Stmt
}

// WhileLoop runs Body while Cond holds.
type WhileLoop struct {
	Cond Expr
	Body []Stmt
}

// If branches on Cond.
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
}

func (Decl) isStmt()        {}
func (DeclArray) isStmt()   {}
func (DeclVec) isStmt()     {}
func (ReadDecl) isStmt()    {}
func (Assign) isStmt()      {}
func (AssignIndex) isStmt() {}
func (PushBack) isStmt()    {}
func (SortVec) isStmt()     {}
func (CountLoop) isStmt()   {}
func (WhileLoop) isStmt()   {}
func (If) isStmt()          {}

// Output is the per-case result line: "Case #<k>: <value>". For TFloat
// the value prints with the given fixed precision.
type Output struct {
	X         Expr
	T         Type
	Precision int
}

// Program is one challenge's per-case computation. The standard GCJ
// wrapper (read T, iterate cases, print "Case #i: ...") is implicit;
// renderers materialize it according to the author's style.
type Program struct {
	// Body contains the per-case statements in order, including reads.
	Body []Stmt
	// Out is the per-case result.
	Out Output
}
