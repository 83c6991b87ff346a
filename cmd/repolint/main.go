// Command repolint enforces repository invariants that go vet cannot
// express, using nothing but go/ast:
//
//   - Deterministic pipeline packages (corpus, codegen, transform,
//     stylometry, ml) must not call time.Now or use the global
//     math/rand source — every sample, style, and split must be
//     reproducible from an explicit seed. Constructing explicitly
//     seeded generators (rand.New, rand.NewSource, rand.NewZipf) is
//     allowed.
//   - Non-test files must not discard the error from io.Closer.Close
//     (a bare `f.Close()` or `defer f.Close()` statement). Types
//     declared in this repository whose Close returns nothing (e.g.
//     serve.Batcher) are exempt — there is no error to discard. A
//     receiver counts as such a type when its name matches the type's,
//     or when it was assigned from a repository function whose first
//     result is that type or a pointer to it (hb := serve.NewBatcher(...)).
//   - Supervised pipeline packages (stylometry, ml, experiments,
//     featcache) must not call naked panic: a panic that escapes a
//     worker kills a whole multi-hour run, so failures must flow
//     through per-sample/per-fold errors under the recover supervisors
//     (see internal/fault). A deliberate panic at a recover-supervised
//     site is exempted with a `// repolint:allow-panic <reason>`
//     comment on the same or preceding line.
//   - Non-test files must not drop the error from os.Rename or
//     os.WriteFile (a bare call statement): both are how torn or
//     missing files are born. Handle the error or assign it to _ with
//     a reason.
//   - Deterministic pipeline packages must not feed map iteration
//     order into order-sensitive sinks (append, printing, writers,
//     serializers): Go randomizes map range order per run, so any
//     output assembled that way breaks bit-identical reproducibility.
//     Ranging to fill another map (commutative) is fine, as is
//     appending to a slice that is later passed through sort or
//     slices.Sort. A deliberate order-insensitive site is exempted
//     with a `// repolint:allow-maprange <reason>` comment on the
//     same or preceding line as the range statement.
//   - internal/stylometry must not construct feature maps
//     (make(Features), Features{...}, or a raw map[string]float64) in
//     non-test files: the extraction hot path accumulates through the
//     interned FeatureVec, and a fresh map inside a pass silently
//     reintroduces per-request allocation and map-order hazards. The
//     boundary converters that deliberately materialize the map view
//     (Features(), family filters, training-time tables) are exempted
//     with a `// repolint:allow-featmap <reason>` comment on the same
//     or preceding line.
//   - Serving packages (serve, fleet, arena) must not call time.Sleep
//     in non-test files: a bare sleep on a request or control path
//     ignores contexts and deadlines, stalls shutdown, and hides
//     missing backpressure. Wait on a context, a timer channel, or a
//     condition instead. A deliberate sleep (e.g. a jittered retry
//     loop that also honours its context) is exempted with a
//     `// repolint:allow-sleep <reason>` comment on the same or
//     preceding line.
//   - Code only tests need does not ship. A function, method, or
//     package-level const or var in a non-test file is flagged when
//     no shipped (non-test) file needs it: an exported one under
//     internal/ must be referenced by some shipped file anywhere
//     (servebench/ and cmd/ included) or by another package's tests;
//     an unexported one must be referenced by a shipped file of its
//     own package. Methods match by name against any selector or
//     interface method; names the standard library calls through an
//     interface (String, Error, MarshalJSON, ...) are never flagged.
//     Delete the code or move it into a _test.go file; a
//     `// repolint:allow-testonly <reason>` comment on the same or
//     preceding line as the name exempts a deliberate one.
//   - Every Go file must be gofmt-clean (checked with go/format).
//
// Exit status: 0 clean, 1 findings, 2 usage or parse errors.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// deterministicPkgs are the pipeline packages whose output must be a
// pure function of their seeds.
var deterministicPkgs = []string{
	"internal/corpus", "internal/codegen", "internal/transform",
	"internal/stylometry", "internal/ml", "internal/evade",
	"internal/arena", "internal/semstats",
}

// supervisedPkgs are the pipeline packages whose long runs must not be
// killable by a stray panic: failures belong in per-sample errors
// under the recover supervisors.
var supervisedPkgs = []string{
	"internal/stylometry", "internal/ml", "internal/experiments",
	"internal/featcache",
}

// servingPkgs are the online-serving packages where a bare time.Sleep
// on a request or control path is a latent deadline/shutdown bug.
var servingPkgs = []string{
	"internal/serve", "internal/fleet", "internal/arena",
}

// allowPanicDirective marks a deliberate panic at a recover-supervised
// site as exempt from the naked-panic rule.
const allowPanicDirective = "repolint:allow-panic"

// allowSleepDirective marks a deliberate sleep in a serving package as
// exempt from the bare-sleep rule.
const allowSleepDirective = "repolint:allow-sleep"

// allowMapRangeDirective marks a range-over-map whose sink order
// genuinely does not matter as exempt from the map-order rule.
const allowMapRangeDirective = "repolint:allow-maprange"

// allowFeatMapDirective marks a deliberate feature-map construction at
// a package boundary as exempt from the interned-path rule.
const allowFeatMapDirective = "repolint:allow-featmap"

// allowTestOnlyDirective exempts a declaration that only tests call
// from the test-only rule.
const allowTestOnlyDirective = "repolint:allow-testonly"

// stdMethods are method names the standard library calls through an
// interface (fmt.Stringer, error, errors.Is/As, json and text
// marshalers, http.Handler, sort and heap interfaces, io): no selector
// in the repository names those calls, so the test-only rule never
// flags them.
var stdMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true,
	"Error": true, "Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "Len": true, "Less": true, "Swap": true,
	"Push": true, "Pop": true, "Read": true, "Write": true, "Close": true,
}

// featMapPkgs are the packages where feature maps may only be built at
// annotated boundaries: extraction proper goes through FeatureVec.
var featMapPkgs = []string{"internal/stylometry"}

// seededConstructors are the math/rand names that build explicitly
// seeded generators, plus the type names used to pass them around —
// both are how deterministic code is supposed to use the package.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"Rand": true, "Source": true, "Source64": true, "Zipf": true,
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
	}
	os.Exit(code)
}

type finding struct {
	pos token.Position
	msg string
}

func run(args []string, out *os.File) (int, error) {
	fs2 := flag.NewFlagSet("repolint", flag.ContinueOnError)
	root := fs2.String("root", ".", "repository root to lint")
	if err := fs2.Parse(args); err != nil {
		return 2, err
	}

	files, err := goFiles(*root)
	if err != nil {
		return 2, err
	}
	fset := token.NewFileSet()
	parsed := make(map[string]*ast.File, len(files))
	var findings []finding
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			return 2, err
		}
		// Comments ride along for the allow-panic directive.
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments)
		if err != nil {
			return 2, err
		}
		parsed[path] = f
		if fmtd, err := format.Source(src); err == nil && !bytes.Equal(fmtd, src) {
			findings = append(findings, finding{fset.Position(f.Package), "file is not gofmt-formatted (run gofmt -w)"})
		}
	}

	voidClose := collectVoidClose(parsed)
	mapFields := collectMapFields(files, parsed)
	findings = append(findings, checkTestOnly(fset, *root, files, parsed)...)
	for _, path := range files {
		f := parsed[path]
		rel, err := filepath.Rel(*root, path)
		if err != nil {
			rel = path
		}
		isTest := strings.HasSuffix(path, "_test.go")
		if !isTest && inDeterministicPkg(rel) {
			findings = append(findings, checkDeterminism(fset, f)...)
			findings = append(findings, checkMapRange(fset, f, mapFields)...)
		}
		if !isTest && inSupervisedPkg(rel) {
			findings = append(findings, checkPanics(fset, f)...)
		}
		if !isTest && inPkgList(rel, servingPkgs) {
			findings = append(findings, checkSleeps(fset, f)...)
		}
		if !isTest && inPkgList(rel, featMapPkgs) {
			findings = append(findings, checkFeatMaps(fset, f)...)
		}
		if !isTest {
			findings = append(findings, checkCloseErrors(fset, path, f, voidClose)...)
			findings = append(findings, checkUncheckedFileOps(fset, f)...)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].pos.Filename != findings[j].pos.Filename {
			return findings[i].pos.Filename < findings[j].pos.Filename
		}
		return findings[i].pos.Line < findings[j].pos.Line
	})
	for _, f := range findings {
		fmt.Fprintf(out, "%s:%d: %s\n", f.pos.Filename, f.pos.Line, f.msg)
	}
	if len(findings) > 0 {
		fmt.Fprintf(out, "repolint: %d finding(s)\n", len(findings))
		return 1, nil
	}
	return 0, nil
}

func goFiles(root string) ([]string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// The root itself is never skipped: "../.." starts with a
			// dot too, and skipping it would lint nothing.
			if path == root {
				return nil
			}
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	return files, nil
}

func inDeterministicPkg(rel string) bool {
	return inPkgList(rel, deterministicPkgs)
}

func inSupervisedPkg(rel string) bool {
	return inPkgList(rel, supervisedPkgs)
}

func inPkgList(rel string, pkgs []string) bool {
	rel = filepath.ToSlash(rel)
	for _, pkg := range pkgs {
		if strings.HasPrefix(rel, pkg+"/") {
			return true
		}
	}
	return false
}

// importAlias returns the name under which the file refers to the
// given import path, or "" when it is not imported.
func importAlias(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return path[strings.LastIndex(path, "/")+1:]
	}
	return ""
}

func checkDeterminism(fset *token.FileSet, f *ast.File) []finding {
	timeAlias := importAlias(f, "time")
	randAlias := importAlias(f, "math/rand")
	if randAlias == "" {
		randAlias = importAlias(f, "math/rand/v2")
	}
	if timeAlias == "" && randAlias == "" {
		return nil
	}
	var out []finding
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Obj != nil { // Obj != nil: a local shadows the package name
			return true
		}
		switch {
		case timeAlias != "" && pkg.Name == timeAlias && sel.Sel.Name == "Now":
			out = append(out, finding{fset.Position(n.Pos()),
				"time.Now in a deterministic pipeline package (outputs must be reproducible from seeds)"})
		case randAlias != "" && pkg.Name == randAlias && !seededConstructors[sel.Sel.Name]:
			out = append(out, finding{fset.Position(n.Pos()),
				fmt.Sprintf("global math/rand.%s in a deterministic pipeline package (use an explicitly seeded rand.New)", sel.Sel.Name)})
		}
		return true
	})
	return out
}

// checkPanics flags naked panic calls in supervised pipeline
// packages. A `// repolint:allow-panic <reason>` comment on the same
// or immediately preceding line exempts a deliberate panic at a
// recover-supervised site.
func checkPanics(fset *token.FileSet, f *ast.File) []finding {
	allowed := directiveLines(fset, f, allowPanicDirective)
	var out []finding
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "panic" || id.Obj != nil { // Obj != nil: locally shadowed
			return true
		}
		pos := fset.Position(call.Pos())
		if allowed[pos.Line] || allowed[pos.Line-1] {
			return true
		}
		out = append(out, finding{pos,
			"naked panic in a supervised pipeline package (return an error so the worker supervisors contain it, or annotate with // " + allowPanicDirective + " <reason>)"})
		return true
	})
	return out
}

// checkSleeps flags time.Sleep calls in serving packages. A sleep
// there ignores contexts and deadlines; waiting belongs on a timer
// channel or a condition. A `// repolint:allow-sleep <reason>` comment
// on the same or immediately preceding line exempts a deliberate one.
func checkSleeps(fset *token.FileSet, f *ast.File) []finding {
	timeAlias := importAlias(f, "time")
	if timeAlias == "" {
		return nil
	}
	allowed := directiveLines(fset, f, allowSleepDirective)
	var out []finding
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Sleep" {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != timeAlias || pkg.Obj != nil {
			return true
		}
		pos := fset.Position(call.Pos())
		if allowed[pos.Line] || allowed[pos.Line-1] {
			return true
		}
		out = append(out, finding{pos,
			"bare time.Sleep in a serving package (wait on a context or timer channel, or annotate with // " + allowSleepDirective + " <reason>)"})
		return true
	})
	return out
}

// directiveLines returns the set of source lines carrying the given
// lint directive in a comment, so rules can exempt the same or the
// following line.
func directiveLines(fset *token.FileSet, f *ast.File, directive string) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, directive) {
				lines[fset.Position(c.Pos()).Line] = true
				lines[fset.Position(c.End()).Line] = true
			}
		}
	}
	return lines
}

// isFeatMapType reports whether a type expression is the feature-map
// shape: the named Features type or a literal map[string]float64.
func isFeatMapType(t ast.Expr) bool {
	switch v := t.(type) {
	case *ast.Ident:
		return v.Name == "Features"
	case *ast.SelectorExpr:
		pkg, ok := v.X.(*ast.Ident)
		return ok && pkg.Obj == nil && v.Sel.Name == "Features" && pkg.Name == "stylometry"
	case *ast.MapType:
		k, kOK := v.Key.(*ast.Ident)
		val, vOK := v.Value.(*ast.Ident)
		return kOK && vOK && k.Name == "string" && val.Name == "float64"
	}
	return false
}

// checkFeatMaps flags construction of feature maps — make(Features),
// a Features composite literal, or a raw make(map[string]float64) — in
// the extraction package. The hot path is the interned FeatureVec;
// fresh maps belong only at annotated package boundaries
// (// repolint:allow-featmap <reason>).
func checkFeatMaps(fset *token.FileSet, f *ast.File) []finding {
	allowed := directiveLines(fset, f, allowFeatMapDirective)
	var out []finding
	flag := func(n ast.Node, what string) {
		pos := fset.Position(n.Pos())
		if allowed[pos.Line] || allowed[pos.Line-1] {
			return
		}
		out = append(out, finding{pos,
			fmt.Sprintf("%s constructed in the extraction package (accumulate through the interned FeatureVec, or annotate a boundary converter with // %s <reason>)", what, allowFeatMapDirective)})
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			id, ok := v.Fun.(*ast.Ident)
			if ok && id.Name == "make" && id.Obj == nil &&
				len(v.Args) > 0 && isFeatMapType(v.Args[0]) {
				flag(v, "feature map")
			}
		case *ast.CompositeLit:
			if v.Type != nil && isFeatMapType(v.Type) {
				flag(v, "feature-map literal")
			}
		}
		return true
	})
	return out
}

// mapRangeSinkMethods are receiver methods whose call order is
// observable in the output: writers, streaming encoders, and the
// feature vector's first-touch term accumulators (a term's first Add
// fixes its position in the vector).
var mapRangeSinkMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "Encode": true,
	"AddShape": true, "AddWord": true, "AddLeaf": true,
}

// mapRangeFmtSinks are the fmt package functions that emit output.
var mapRangeFmtSinks = map[string]bool{
	"Fprintf": true, "Printf": true, "Fprintln": true, "Println": true,
	"Print": true, "Fprint": true, "Sprintf": true, "Sprintln": true,
	"Sprint": true,
}

// checkMapRange flags range-over-map loops in deterministic packages
// whose bodies feed order-sensitive sinks. Go randomizes map iteration
// order per run; appending, printing, writing, or serializing inside
// such a loop makes output depend on that order. Writing into another
// map is commutative and not flagged, and an append whose target is
// later passed to sort/slices is exempt (the sort erases the order).
// A range over a selector counts as a map range when the selected
// name is a struct field declared with a map type (mapFields).
func checkMapRange(fset *token.FileSet, f *ast.File, mapFields map[string]bool) []finding {
	allowed := directiveLines(fset, f, allowMapRangeDirective)

	// Map-typed objects: declared with a map type, assigned from
	// make(map...) or a map literal, or received as a map parameter.
	mapObjs := make(map[*ast.Object]bool)
	mark := func(id *ast.Ident) {
		if id != nil && id.Obj != nil {
			mapObjs[id.Obj] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.ValueSpec:
			if isMapType(d.Type) {
				for _, name := range d.Names {
					mark(name)
				}
			}
			for i, name := range d.Names {
				if i < len(d.Values) && isMapExpr(d.Values[i]) {
					mark(name)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range d.Lhs {
				if i < len(d.Rhs) && isMapExpr(d.Rhs[i]) {
					if id, ok := lhs.(*ast.Ident); ok {
						mark(id)
					}
				}
			}
		case *ast.Field:
			if isMapType(d.Type) {
				for _, name := range d.Names {
					mark(name)
				}
			}
		}
		return true
	})

	// Append targets that are later sorted anywhere in the file: the
	// sort erases iteration order, so the append is safe.
	sorted := make(map[string]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Obj != nil || (pkg.Name != "sort" && pkg.Name != "slices") {
			return true
		}
		for _, arg := range call.Args {
			sorted[exprString(arg)] = true
		}
		return true
	})

	var out []finding
	ast.Inspect(f, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		switch x := rng.X.(type) {
		case *ast.Ident:
			if x.Obj == nil || !mapObjs[x.Obj] {
				return true
			}
		case *ast.SelectorExpr:
			if !mapFields[x.Sel.Name] {
				return true
			}
		default:
			return true
		}
		pos := fset.Position(rng.Pos())
		if allowed[pos.Line] || allowed[pos.Line-1] {
			return true
		}
		if sink := mapRangeSink(f, rng.Body, sorted); sink != "" {
			out = append(out, finding{pos,
				fmt.Sprintf("map iteration order feeds %s in a deterministic pipeline package (iterate sorted keys, or annotate with // %s <reason>)", sink, allowMapRangeDirective)})
		}
		return true
	})
	return out
}

// collectMapFields returns the names of the struct fields that shipped
// files declare with a map type. Shipped code can only range over
// fields of shipped types, so test files are skipped.
func collectMapFields(files []string, parsed map[string]*ast.File) map[string]bool {
	out := make(map[string]bool)
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		ast.Inspect(parsed[path], func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				if isMapType(fld.Type) {
					for _, name := range fld.Names {
						out[name.Name] = true
					}
				}
			}
			return true
		})
	}
	return out
}

// mapRangeSink scans a range body for the first order-sensitive sink
// and names it, or returns "" when the body is order-safe.
func mapRangeSink(f *ast.File, body *ast.BlockStmt, sorted map[string]bool) string {
	fmtAlias := importAlias(f, "fmt")
	jsonAlias := importAlias(f, "encoding/json")
	sink := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fun.Name == "append" && fun.Obj == nil && len(call.Args) > 0 {
				if !sorted[exprString(call.Args[0])] {
					sink = "append"
				}
			}
		case *ast.SelectorExpr:
			pkg, isPkg := fun.X.(*ast.Ident)
			isPkg = isPkg && pkg.Obj == nil
			switch {
			case isPkg && fmtAlias != "" && pkg.Name == fmtAlias && mapRangeFmtSinks[fun.Sel.Name]:
				sink = "fmt." + fun.Sel.Name
			case isPkg && jsonAlias != "" && pkg.Name == jsonAlias &&
				(fun.Sel.Name == "Marshal" || fun.Sel.Name == "MarshalIndent"):
				sink = "json." + fun.Sel.Name
			case !isPkg && mapRangeSinkMethods[fun.Sel.Name]:
				sink = "." + fun.Sel.Name
			case isPkg && mapRangeSinkMethods[fun.Sel.Name]:
				// A package-level Write/Encode etc. is still a sink.
				sink = pkg.Name + "." + fun.Sel.Name
			}
		}
		return true
	})
	return sink
}

// isMapType reports whether a type expression is literally a map.
func isMapType(t ast.Expr) bool {
	_, ok := t.(*ast.MapType)
	return ok
}

// isMapExpr reports whether an expression evaluates to a fresh map:
// make(map[...]...) or a map composite literal.
func isMapExpr(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.CallExpr:
		id, ok := v.Fun.(*ast.Ident)
		return ok && id.Name == "make" && id.Obj == nil &&
			len(v.Args) > 0 && isMapType(v.Args[0])
	case *ast.CompositeLit:
		return v.Type != nil && isMapType(v.Type)
	}
	return false
}

// exprString renders an expression for structural comparison (e.g.
// matching an append target against a later sort call's argument).
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.IndexExpr:
		return exprString(v.X) + "[" + exprString(v.Index) + "]"
	case *ast.StarExpr:
		return "*" + exprString(v.X)
	case *ast.CallExpr:
		return exprString(v.Fun) + "(...)"
	case *ast.BasicLit:
		return v.Value
	}
	return fmt.Sprintf("%T", e)
}

// checkUncheckedFileOps flags bare-statement calls to os.Rename and
// os.WriteFile whose error result is dropped on the floor: both
// silently produce missing or torn files when they fail.
func checkUncheckedFileOps(fset *token.FileSet, f *ast.File) []finding {
	osAlias := importAlias(f, "os")
	if osAlias == "" {
		return nil
	}
	var out []finding
	flag := func(call *ast.CallExpr) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != osAlias || pkg.Obj != nil {
			return
		}
		if sel.Sel.Name != "Rename" && sel.Sel.Name != "WriteFile" {
			return
		}
		out = append(out, finding{fset.Position(call.Pos()),
			fmt.Sprintf("os.%s error ignored (handle it, or assign to _ with a reason)", sel.Sel.Name)})
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				flag(call)
			}
		case *ast.DeferStmt:
			flag(s.Call)
		case *ast.GoStmt:
			flag(s.Call)
		}
		return true
	})
	return out
}

// voidClose describes the repository's void-Close types: their
// lower-cased names (for the receiver-name heuristic) and the
// repository functions whose first result is one of them, keyed
// "<dir>.<func>" for same-package calls and "<pkg>.<func>" for
// qualified ones.
type voidClose struct {
	names      map[string]bool
	ctorsByDir map[string]bool
	ctorsByPkg map[string]bool
}

// collectVoidClose finds repo-declared types whose Close method has no
// results — calls on their values have no error to lose — and the
// functions that construct them.
func collectVoidClose(parsed map[string]*ast.File) voidClose {
	vc := voidClose{names: make(map[string]bool), ctorsByDir: make(map[string]bool), ctorsByPkg: make(map[string]bool)}
	types := make(map[string]bool) // "<dir>.<Type>" and "<pkg>.<Type>"
	for path, f := range parsed {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "Close" || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			if fd.Type.Results != nil && len(fd.Type.Results.List) > 0 {
				continue
			}
			t := fd.Recv.List[0].Type
			if star, ok := t.(*ast.StarExpr); ok {
				t = star.X
			}
			if id, ok := t.(*ast.Ident); ok {
				vc.names[strings.ToLower(id.Name)] = true
				types[filepath.Dir(path)+"."+id.Name] = true
				types[f.Name.Name+"."+id.Name] = true
			}
		}
	}
	for path, f := range parsed {
		dir := filepath.Dir(path)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Type.Results == nil || len(fd.Type.Results.List) == 0 {
				continue
			}
			t := fd.Type.Results.List[0].Type
			if star, ok := t.(*ast.StarExpr); ok {
				t = star.X
			}
			var key string
			switch v := t.(type) {
			case *ast.Ident:
				key = dir + "." + v.Name
			case *ast.SelectorExpr:
				if pkg, ok := v.X.(*ast.Ident); ok {
					key = pkg.Name + "." + v.Sel.Name
				}
			}
			if types[key] {
				vc.ctorsByDir[dir+"."+fd.Name.Name] = true
				vc.ctorsByPkg[f.Name.Name+"."+fd.Name.Name] = true
			}
		}
	}
	return vc
}

// voidCloseVars returns the objects of the file's variables that were
// assigned (:=, = or var) from a call to a void-Close constructor, as
// the first value of the assignment.
func voidCloseVars(path string, f *ast.File, vc voidClose) map[*ast.Object]bool {
	dir := filepath.Dir(path)
	isCtor := func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			return vc.ctorsByDir[dir+"."+fun.Name]
		case *ast.SelectorExpr:
			pkg, ok := fun.X.(*ast.Ident)
			return ok && pkg.Obj == nil && vc.ctorsByPkg[pkg.Name+"."+fun.Sel.Name]
		}
		return false
	}
	out := make(map[*ast.Object]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		var lhs *ast.Ident
		var rhs ast.Expr
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) > 0 && len(s.Rhs) > 0 {
				lhs, _ = s.Lhs[0].(*ast.Ident)
				rhs = s.Rhs[0]
			}
		case *ast.ValueSpec:
			if len(s.Names) > 0 && len(s.Values) > 0 {
				lhs, rhs = s.Names[0], s.Values[0]
			}
		}
		if lhs != nil && lhs.Obj != nil && isCtor(rhs) {
			out[lhs.Obj] = true
		}
		return true
	})
	return out
}

// checkCloseErrors flags statements that call .Close() and drop the
// result. Without type information the receiver test is a heuristic:
// a receiver identifier that case-insensitively matches a repo type
// with a void Close is exempt, and so is one assigned from a repo
// function returning such a type.
func checkCloseErrors(fset *token.FileSet, path string, f *ast.File, vc voidClose) []finding {
	ctorVars := voidCloseVars(path, f, vc)
	var out []finding
	flag := func(call *ast.CallExpr) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Close" || len(call.Args) != 0 {
			return
		}
		if id, ok := sel.X.(*ast.Ident); ok && (vc.names[strings.ToLower(id.Name)] || id.Obj != nil && ctorVars[id.Obj]) {
			return
		}
		out = append(out, finding{fset.Position(call.Pos()),
			"Close error ignored (handle it, or assign to _ with a reason)"})
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				flag(call)
			}
		case *ast.DeferStmt:
			flag(s.Call)
		}
		return true
	})
	return out
}

// checkTestOnly flags declarations in non-test files that no shipped
// code needs: functions, methods, and package-level consts and vars.
// Shipped code is every non-test file in the tree, servebench/ and
// cmd/ included. One predicate decides:
//
//   - an exported declaration under internal/ is kept when some
//     shipped file anywhere references it, or when another package's
//     tests do (a shared fixture or reference oracle);
//   - an unexported declaration anywhere is kept when a shipped file of
//     its own package references it.
//
// Package-level names resolve by name within the package and through
// import aliases across packages. Without type information a method
// matches by name: any selector or interface method of that name in a
// qualifying file keeps it, and so does a name the standard library
// calls through an interface (stdMethods). A declaration's references
// to itself (recursion, r.M() inside M) do not keep it alive.
// A `// repolint:allow-testonly <reason>` comment on the same or
// preceding line as the name exempts a finding.
func checkTestOnly(fset *token.FileSet, root string, files []string, parsed map[string]*ast.File) []finding {
	type decl struct {
		dir, key, what string
		exported       bool
		pos            token.Position
	}
	// uses records, per referenced key, the directories whose shipped
	// and test files reference it. Package-level keys are
	// "<dir>.<name>"; method keys are ".<name>".
	type uses struct{ ship, test map[string]bool }
	refs := make(map[string]*uses)
	ref := func(key, dir string, isTest bool) {
		u := refs[key]
		if u == nil {
			u = &uses{make(map[string]bool), make(map[string]bool)}
			refs[key] = u
		}
		if isTest {
			u.test[dir] = true
		} else {
			u.ship[dir] = true
		}
	}
	relDirs := make(map[string]string) // slash path relative to root -> dir
	for _, path := range files {
		dir := filepath.Dir(path)
		if rel, err := filepath.Rel(root, dir); err == nil {
			relDirs[filepath.ToSlash(rel)] = dir
		}
	}
	var decls []decl
	for _, path := range files {
		f := parsed[path]
		dir := filepath.Dir(path)
		isTest := strings.HasSuffix(path, "_test.go")
		imports := importDirs(f, relDirs)
		var selfFunc, selfRecv, selfMethod string
		var mark func(n ast.Node) bool
		mark = func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.FuncDecl:
				// The declared name is not a use of itself.
				selfFunc, selfRecv, selfMethod = "", "", ""
				if v.Recv == nil {
					selfFunc = v.Name.Name
				} else {
					selfMethod = v.Name.Name
					if names := v.Recv.List[0].Names; len(names) > 0 {
						selfRecv = names[0].Name
					}
					ast.Inspect(v.Recv, mark)
				}
				ast.Inspect(v.Type, mark)
				if v.Body != nil {
					ast.Inspect(v.Body, mark)
				}
				return false
			case *ast.Field:
				// Field, parameter and result names declare, not use.
				ast.Inspect(v.Type, mark)
				return false
			case *ast.ValueSpec:
				if v.Type != nil {
					ast.Inspect(v.Type, mark)
				}
				for _, val := range v.Values {
					ast.Inspect(val, mark)
				}
				return false
			case *ast.InterfaceType:
				// A method an interface names can be called through it.
				for _, m := range v.Methods.List {
					for _, name := range m.Names {
						ref("."+name.Name, dir, isTest)
					}
					ast.Inspect(m.Type, mark)
				}
				return false
			case *ast.SelectorExpr:
				if x, ok := v.X.(*ast.Ident); ok {
					// Obj != nil: a local shadows the package name.
					if target, ok := imports[x.Name]; ok && x.Obj == nil {
						if target != "" {
							ref(target+"."+v.Sel.Name, dir, isTest)
						}
						return false
					}
					if x.Name == selfRecv && v.Sel.Name == selfMethod {
						return false
					}
				}
				ref("."+v.Sel.Name, dir, isTest)
				ast.Inspect(v.X, mark)
				return false
			case *ast.Ident:
				if v.Name != selfFunc {
					ref(dir+"."+v.Name, dir, isTest)
				}
			}
			return true
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			rel = path
		}
		internal := strings.HasPrefix(filepath.ToSlash(rel), "internal/")
		allowed := directiveLines(fset, f, allowTestOnlyDirective)
		add := func(name *ast.Ident, key, what string) {
			exported := ast.IsExported(name.Name)
			pos := fset.Position(name.Pos())
			if isTest || (exported && !internal) || allowed[pos.Line] || allowed[pos.Line-1] {
				return
			}
			switch name.Name {
			case "main", "init", "_":
				return
			}
			decls = append(decls, decl{dir, key, what, exported, pos})
		}
		for _, d := range f.Decls {
			selfFunc, selfRecv, selfMethod = "", "", ""
			ast.Inspect(d, mark)
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, dir+"."+d.Name.Name, "function "+d.Name.Name)
				} else if !stdMethods[d.Name.Name] {
					add(d.Name, "."+d.Name.Name, "method "+recvTypeName(d.Recv)+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				if d.Tok != token.CONST && d.Tok != token.VAR {
					continue
				}
				for _, spec := range d.Specs {
					for _, name := range spec.(*ast.ValueSpec).Names {
						add(name, dir+"."+name.Name, d.Tok.String()+" "+name.Name)
					}
				}
			}
		}
	}
	var out []finding
	for _, d := range decls {
		u := refs[d.key]
		if u == nil {
			u = &uses{}
		}
		kept := u.ship[d.dir]
		if d.exported {
			kept = len(u.ship) > 0
			for dir := range u.test {
				kept = kept || dir != d.dir
			}
		}
		if kept {
			continue
		}
		vis := "unexported"
		if d.exported {
			vis = "exported"
		}
		if u.test[d.dir] {
			out = append(out, finding{d.pos, fmt.Sprintf("%s %s is referenced only by tests (move it into a _test.go file, or annotate with // %s <reason>)", vis, d.what, allowTestOnlyDirective)})
		} else {
			out = append(out, finding{d.pos, fmt.Sprintf("%s %s is referenced by no shipped code or test (delete it)", vis, d.what)})
		}
	}
	return out
}

// importDirs maps each of the file's import names to the repository
// directory its path resolves to, or to "" for a package outside the
// tree. A path resolves to the longest root-relative directory it ends
// with, so "gptattr/internal/serve" from either module is internal/serve.
func importDirs(f *ast.File, relDirs map[string]string) map[string]string {
	out := make(map[string]string, len(f.Imports))
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := p[strings.LastIndex(p, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		dir := ""
		for rest := p; rest != ""; {
			if d, ok := relDirs[rest]; ok {
				dir = d
				break
			}
			i := strings.Index(rest, "/")
			if i < 0 {
				break
			}
			rest = rest[i+1:]
		}
		out[name] = dir
	}
	return out
}

// recvTypeName names a method receiver's type, without pointer or
// type parameters.
func recvTypeName(recv *ast.FieldList) string {
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch v := t.(type) {
	case *ast.IndexExpr:
		t = v.X
	case *ast.IndexListExpr:
		t = v.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
