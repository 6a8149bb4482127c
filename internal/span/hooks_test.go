package span

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestSolverPackagesHaveOneHook guards the single instrumentation hook:
// the solver packages report to the span recorder and nothing else, so
// none of their non-test files may declare a package-level atomic.Pointer
// — directly or through a package-level type — other than the batch
// scheduler's panic hook, which lets the flight recorder dump a bundle
// before a crash.
func TestSolverPackagesHaveOneHook(t *testing.T) {
	allowed := map[string]bool{"batch.panicHook": true}
	fset := token.NewFileSet()
	for _, pkg := range []string{"core", "mutation", "device", "batch", "errorclass", "kron"} {
		paths, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("%s: no Go files found (%v)", pkg, err)
		}
		var files []*ast.File
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		// Package-level types that hold an atomic.Pointer somewhere.
		pointerTypes := map[string]bool{}
		for _, f := range files {
			for _, spec := range specs(f, token.TYPE) {
				if ts := spec.(*ast.TypeSpec); mentionsAtomicPointer(ts.Type, nil) {
					pointerTypes[ts.Name.Name] = true
				}
			}
		}
		for _, f := range files {
			for _, spec := range specs(f, token.VAR) {
				vs := spec.(*ast.ValueSpec)
				if !mentionsAtomicPointer(vs, pointerTypes) {
					continue
				}
				for _, name := range vs.Names {
					if !allowed[pkg+"."+name.Name] {
						t.Errorf("%s: package-level atomic.Pointer %s.%s is a second hook; report through internal/span instead",
							fset.Position(name.Pos()), pkg, name.Name)
					}
				}
			}
		}
	}
}

// specs returns the specs of f's top-level declarations of kind tok.
func specs(f *ast.File, tok token.Token) []ast.Spec {
	var out []ast.Spec
	for _, decl := range f.Decls {
		if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == tok {
			out = append(out, gd.Specs...)
		}
	}
	return out
}

// mentionsAtomicPointer reports whether n refers to atomic.Pointer or to
// one of the named types.
func mentionsAtomicPointer(n ast.Node, types map[string]bool) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok && id.Name == "atomic" && x.Sel.Name == "Pointer" {
				found = true
			}
		case *ast.Ident:
			if types[x.Name] {
				found = true
			}
		}
		return !found
	})
	return found
}
