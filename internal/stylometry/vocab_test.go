package stylometry

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"gptattr/internal/cppast"
)

// cppastKindTypes parses the cppast sources and returns the name of
// every type declaring a `Kind() string` method.
func cppastKindTypes(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("../cppast/*.go")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Name.Name != "Kind" ||
				fn.Type.Params.NumFields() != 0 || fn.Type.Results.NumFields() != 1 {
				continue
			}
			if res, ok := fn.Type.Results.List[0].Type.(*ast.Ident); !ok || res.Name != "string" {
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				names = append(names, id.Name)
			}
		}
	}
	sort.Strings(names)
	return names
}

// TestKindIDCoversCppast pins the closed AST-kind vocabulary: every
// cppast node type has its own kind ID, named exactly as its Kind()
// string. A node type added to cppast without a kindID case fails here
// instead of being counted as Unknown.
func TestKindIDCoversCppast(t *testing.T) {
	nodes := []cppast.Node{
		&cppast.TranslationUnit{}, &cppast.Preproc{}, &cppast.UsingDirective{},
		&cppast.TypedefDecl{}, &cppast.Comment{}, &cppast.Unknown{}, &cppast.Param{},
		&cppast.FuncDecl{}, &cppast.StructDecl{}, &cppast.Declarator{}, &cppast.VarDecl{},
		&cppast.Block{}, &cppast.If{}, &cppast.For{}, &cppast.While{}, &cppast.DoWhile{},
		&cppast.Return{}, &cppast.Break{}, &cppast.Continue{}, &cppast.ExprStmt{},
		&cppast.EmptyStmt{}, &cppast.SwitchCase{}, &cppast.Switch{}, &cppast.BinaryExpr{},
		&cppast.UnaryExpr{}, &cppast.TernaryExpr{}, &cppast.CallExpr{}, &cppast.IndexExpr{},
		&cppast.MemberExpr{}, &cppast.CastExpr{}, &cppast.ParenExpr{}, &cppast.Ident{},
		&cppast.Lit{},
	}
	var covered []string
	seen := map[int]string{}
	for _, n := range nodes {
		name := reflect.TypeOf(n).Elem().Name()
		covered = append(covered, name)
		k := kindID(n)
		if kindNames[k] != n.Kind() {
			t.Errorf("%s: kindNames[kindID] = %q, Kind() = %q", name, kindNames[k], n.Kind())
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("%s and %s share kind ID %d", prev, name, k)
		}
		seen[k] = name
	}
	sort.Strings(covered)

	declared := cppastKindTypes(t)
	if strings.Join(declared, ",") != strings.Join(covered, ",") {
		t.Errorf("cppast types with Kind() string:\n  %v\nthis test covers:\n  %v", declared, covered)
	}
	if len(declared) != numKinds {
		t.Errorf("cppast declares %d node kinds, vocabulary has numKinds = %d", len(declared), numKinds)
	}
}
