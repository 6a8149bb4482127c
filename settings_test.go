package quasispecies

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// oracleSettings are the settings that only tests set and DESIGN.md §7.1
// accounts for: the inputs of a named oracle, which no production path
// runs, so its tests are its only callers.
var oracleSettings = []string{
	"internal/ode.SteadyStateOptions.Tol",
	"internal/ode.SteadyStateOptions.Dt",
	"internal/ode.SteadyStateOptions.MaxSteps",
}

// TestEverySettingHasACaller keeps test-only tuning knobs from coming back:
// every exported field of an exported *Options or *Config struct in the
// module's internal packages and commands must be set by some non-test file
// outside bench/, by a composite-literal key, an assignment of any form
// (tuple assignments and ++/-- included) or by taking its address
// (flag.IntVar(&o.N, …)). Writes in the struct's own methods do not count:
// they fill defaults in, they do not choose a value. A value only tests
// need is a constant, or an unexported field that its package's tests set.
//
// The public packages (the facade and rna) are left out: their settings
// are API for importers outside the module, which no check here can see.
// Inside internal/ and in commands the module is the only caller.
func TestEverySettingHasACaller(t *testing.T) {
	pkgs := loadModule(t)
	fields := map[*types.Var]string{} // every tracked field → "dir.Struct.Field"
	var order []*types.Var
	for _, p := range pkgs {
		if p.types.Name() != "main" && !strings.Contains("/"+p.dir+"/", "/internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[f] = p.dir + "." + name + "." + f.Name()
					order = append(order, f)
				}
			}
		}
	}
	if len(fields) == 0 {
		t.Fatal("found no exported *Options or *Config fields")
	}

	set := map[*types.Var]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			collectSets(f, p.info, fields, set)
		}
	}

	allowed := map[string]bool{}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	section := string(design)
	if i := strings.Index(section, "### 7.1 "); i >= 0 {
		section = section[i:]
		if j := strings.Index(section[1:], "\n## "); j >= 0 {
			section = section[:j+1]
		}
	}
	for _, key := range oracleSettings {
		allowed[key] = true
		if !strings.Contains(section, "`"+strings.TrimPrefix(key, "internal/")+"`") {
			t.Errorf("%s is allowlisted but DESIGN.md §7.1 does not list it", key)
		}
	}

	var unset []string
	for _, f := range order {
		key := fields[f]
		switch {
		case set[f] && allowed[key]:
			t.Errorf("%s is allowlisted as test-only, but production code sets it: drop it from oracleSettings and DESIGN.md §7.1", key)
		case !set[f] && !allowed[key]:
			unset = append(unset, key)
		}
	}
	sort.Strings(unset)
	for _, key := range unset {
		t.Errorf("%s: no non-test code outside bench/ sets it; make its value a constant, or an unexported field its package's tests set", key)
	}
}

// collectSets marks every tracked field that f sets outside the methods of
// the field's own struct.
func collectSets(f *ast.File, info *types.Info, fields map[*types.Var]string, set map[*types.Var]bool) {
	var recv types.Type // receiver type of the enclosing method, if any
	mark := func(e ast.Expr) {
		for {
			p, ok := e.(*ast.ParenExpr)
			if !ok {
				break
			}
			e = p.X
		}
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return
		}
		s := info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return
		}
		v := s.Obj().(*types.Var)
		if _, tracked := fields[v]; !tracked {
			return
		}
		if recv != nil && ownsField(recv, v) {
			return
		}
		set[v] = true
	}
	for _, decl := range f.Decls {
		recv = nil
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil && len(fd.Recv.List) == 1 {
			recv = info.TypeOf(fd.Recv.List[0].Type)
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.KeyValueExpr:
				if id, ok := x.Key.(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
						if _, tracked := fields[v]; tracked {
							set[v] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					mark(lhs)
				}
			case *ast.IncDecStmt:
				mark(x.X)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					mark(x.X)
				}
			}
			return true
		})
	}
}

// ownsField reports whether v is a field of recv's struct (recv may be a
// pointer to it).
func ownsField(recv types.Type, v *types.Var) bool {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	st, ok := recv.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i) == v {
			return true
		}
	}
	return false
}

// modulePkg is one type-checked package of the module: its non-test files
// for this platform and their type information.
type modulePkg struct {
	dir   string // relative to the module root, "." for the root
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loadModule parses and type-checks every package of the module outside
// bench/ (a module of its own) and testdata/. Standard-library imports are
// stood in for by empty packages: the check only needs the module's own
// struct types, so the errors that leaves are ignored.
func loadModule(t *testing.T) []*modulePkg {
	t.Helper()
	const modPath = "repro"
	fset := token.NewFileSet()
	byPath := map[string]*modulePkg{}
	var dirs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != "." && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		var files []*ast.File
		for _, e := range entries {
			fn := e.Name()
			if !strings.HasSuffix(fn, ".go") || strings.HasSuffix(fn, "_test.go") {
				continue
			}
			if ok, err := build.Default.MatchFile(path, fn); err != nil || !ok {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(path, fn), nil, 0)
			if err != nil {
				return err
			}
			files = append(files, f)
		}
		if len(files) > 0 {
			importPath := modPath
			if path != "." {
				importPath += "/" + filepath.ToSlash(path)
			}
			byPath[importPath] = &modulePkg{dir: filepath.ToSlash(path), files: files}
			dirs = append(dirs, importPath)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	imp := &moduleImporter{fset: fset, pkgs: byPath, std: map[string]*types.Package{}}
	var out []*modulePkg
	for _, path := range dirs {
		if _, err := imp.Import(path); err != nil {
			t.Fatal(err)
		}
		out = append(out, byPath[path])
	}
	return out
}

// moduleImporter type-checks module packages from source on first import.
type moduleImporter struct {
	fset *token.FileSet
	pkgs map[string]*modulePkg
	std  map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	p, ok := m.pkgs[path]
	if !ok {
		if m.std[path] == nil {
			m.std[path] = types.NewPackage(path, filepath.Base(path))
			m.std[path].MarkComplete()
		}
		return m.std[path], nil
	}
	if p.types != nil {
		return p.types, nil
	}
	p.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: m, Error: func(error) {}}
	p.types, _ = conf.Check(path, m.fset, p.files, p.info)
	return p.types, nil
}
