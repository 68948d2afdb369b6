package pnetcdf_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestReadmeReferencesResolve: every backticked token in README.md that
// names this module's code resolves. A `pkg.Name` or `*pkg.Name` must be a
// declaration of a package under internal/, test files included, and a
// `pkg.Type.Member` a field or method of that type; a path — `cmd/…`,
// `internal/…`, a `*.go` or `*.md` file — must exist. Code that is deleted
// while the README still points at it fails here. The declarations come
// from go/parser alone, without type checking.
func TestReadmeReferencesResolve(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	decls := internalDecls(t)
	var files []string // every file of the module, by path from the root
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() {
			files = append(files, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ident := `[A-Za-z_][A-Za-z0-9_]*`
	ref := regexp.MustCompile(`^\*?([a-z][a-z0-9]*)\.(` + ident + `)(?:\.(` + ident + `))?(?:\(\))?$`)
	checked := 0
	for _, m := range regexp.MustCompile("`([^`\n]+)`").FindAllStringSubmatch(string(readme), -1) {
		tok := m[1]
		if sub := ref.FindStringSubmatch(tok); sub != nil && decls[sub[1]] != nil {
			checked++
			members, ok := decls[sub[1]][sub[2]]
			switch {
			case !ok:
				t.Errorf("README.md names `%s`: package %s declares no %s", tok, sub[1], sub[2])
			case sub[3] != "" && !members[sub[3]]:
				t.Errorf("README.md names `%s`: %s.%s has no field or method %s", tok, sub[1], sub[2], sub[3])
			}
			continue
		}
		if strings.ContainsAny(tok, " *<…") || strings.Contains(tok, "...") {
			continue // a command, a pattern or a placeholder, not a path
		}
		path := strings.TrimSuffix(tok, "/")
		switch {
		case strings.HasPrefix(path, "cmd/") || strings.HasPrefix(path, "internal/"):
			checked++
			if _, err := os.Stat(path); err != nil {
				t.Errorf("README.md names `%s`, which does not exist", tok)
			}
		case strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".md"):
			checked++
			found := false
			for _, f := range files {
				found = found || f == path || !strings.Contains(path, "/") && filepath.Base(f) == path
			}
			if !found {
				t.Errorf("README.md names `%s`, which is no file of the module", tok)
			}
		}
	}
	if checked == 0 {
		t.Fatal("README.md names nothing of the module: the test checked nothing")
	}
}

// TestExportedNamesHaveCallers: nothing under internal/ is exported unless
// another package calls it. The module's API is the netCDF/PnetCDF dataset
// interface (paper §3) plus what cmd/, examples/ and benchmark/ use; a name
// exported for a test alone, or for its own package alone, widens that
// surface and hides dead code. Every exported function, type, var, const
// and method in a non-test file under internal/ must be named by a non-test
// file of another package — a top-level name as pkg.Name; a method by its
// name as any selector, without type checking; Error and String, which the
// standard library calls — or be on the allowlist below. The declarations
// come from internalDeclList, the references from go/parser alone.
func TestExportedNamesHaveCallers(t *testing.T) {
	// allowed holds the exported names that need no caller, each with why:
	// "pkg.Name", "pkg.Type.Method", "pkg.Type.*" for a method set, or
	// "pkg" for a whole package.
	allowed := map[string]string{
		// The netCDF/PnetCDF API: both libraries' Dataset method sets, as
		// integration.TestDatasetMethodSets pins them, with what the front
		// they share promotes into both.
		"core.Dataset.*":   "the PnetCDF dataset API",
		"netcdf.Dataset.*": "the serial netCDF dataset API",
		"cdf.Front.*":      "the define, attribute and inquiry calls both Datasets promote",
		// A test hook that tests in six packages arm.
		"fault.Injector.ArmCrash": "the crash point the crash-consistency tests arm",
		// Packages only tests import: what several packages' tests share.
		"metashape":  "the 4096-variable metadata-wall schema",
		"behindtest": "the write-behind test harness",
		// The Figure 6 partitions are one enum: cmd/ sweeps AllPartitions
		// and benchmark/ names PartX and PartZ; the others are its members.
		"bench.PartY":   "a Figure 6 partition",
		"bench.PartZY":  "a Figure 6 partition",
		"bench.PartZX":  "a Figure 6 partition",
		"bench.PartYX":  "a Figure 6 partition",
		"bench.PartZYX": "a Figure 6 partition",
	}
	var exported []declaration
	for _, d := range internalDeclList(t) {
		ident := d.name
		if d.method {
			ident = d.member
		}
		if d.test || d.member != "" && !d.method || !ast.IsExported(ident) {
			continue // test code, a field, or an unexported name
		}
		exported = append(exported, d)
	}
	if len(exported) == 0 {
		t.Fatal("no exported declaration found under internal/: the guard checked nothing")
	}

	// What every non-test file that may import internal/ refers to:
	// package-qualified names, by the directory declaring them, and
	// selector names, by the directories using them.
	qualified := map[string]bool{}     // "dir.Name"
	selectors := map[string][]string{} // name → directories
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "examples", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			dir := filepath.ToSlash(filepath.Dir(path))
			imports := map[string]string{} // local name → directory
			for _, imp := range f.Imports {
				ipath := strings.Trim(imp.Path.Value, `"`)
				if !strings.HasPrefix(ipath, "pnetcdf/internal/") {
					continue
				}
				name := ipath[strings.LastIndex(ipath, "/")+1:]
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = strings.TrimPrefix(ipath, "pnetcdf/")
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
					qualified[imports[x.Name]+"."+sel.Sel.Name] = true
				} else {
					selectors[sel.Sel.Name] = append(selectors[sel.Sel.Name], dir)
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	used := map[string]bool{} // allowlist entries that matched
	var missing []string
	for _, d := range exported {
		name := d.pkg + "." + d.name
		if d.method {
			name += "." + d.member
		}
		if key := allowKey(allowed, d, name); key != "" {
			used[key] = true
			continue
		}
		called := qualified[d.dir+"."+d.name]
		if d.method {
			called = d.member == "Error" || d.member == "String"
			for _, dir := range selectors[d.member] {
				called = called || dir != d.dir
			}
		}
		if !called {
			missing = append(missing, fmt.Sprintf("%s: %s", d.pos, name))
		}
	}
	if len(missing) > 0 {
		t.Errorf("%d of %d exported names under internal/ have no caller outside their package; delete or unexport each, or allowlist it with a reason:\n%s",
			len(missing), len(exported), strings.Join(missing, "\n"))
	}
	for key := range allowed {
		if !used[key] {
			t.Errorf("allowlist entry %q names no exported declaration", key)
		}
	}
	t.Logf("%d exported names under internal/, %d allowlist entries", len(exported), len(allowed))
}

// allowKey returns the allowlist entry that covers declaration d, named
// name, or "".
func allowKey(allowed map[string]string, d declaration, name string) string {
	keys := []string{d.pkg, name}
	if d.method {
		keys = append(keys, d.pkg+"."+d.name+".*")
	}
	for _, k := range keys {
		if allowed[k] != "" {
			return k
		}
	}
	return ""
}

// internalDecls maps each package under internal/ (an external test
// package under its own name) to its top-level declarations, and each of
// those to its fields and methods.
func internalDecls(t *testing.T) map[string]map[string]map[string]bool {
	t.Helper()
	decls := map[string]map[string]map[string]bool{}
	for _, d := range internalDeclList(t) {
		if decls[d.pkg] == nil {
			decls[d.pkg] = map[string]map[string]bool{}
		}
		if decls[d.pkg][d.name] == nil {
			decls[d.pkg][d.name] = map[string]bool{}
		}
		if d.member != "" {
			decls[d.pkg][d.name][d.member] = true
		}
	}
	return decls
}

// declaration is one name a Go file under internal/ declares: a top-level
// function, type, var or const (member empty), or a field or method of a
// type (member set).
type declaration struct {
	pkg    string // the package's name; an external test package's without "_test"
	dir    string // the package's directory, by path from the module root
	name   string
	member string
	method bool // member is a method, not a field
	test   bool // declared in a _test.go file
	pos    token.Position
}

// internalDeclList lists every declaration of every Go file under internal/,
// test files included, from go/parser alone.
func internalDeclList(t *testing.T) []declaration {
	t.Helper()
	var decls []declaration
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		file := declaration{
			pkg:  strings.TrimSuffix(f.Name.Name, "_test"),
			dir:  filepath.ToSlash(filepath.Dir(path)),
			test: strings.HasSuffix(path, "_test.go"),
		}
		declare := func(n *ast.Ident, name, member string, method bool) {
			d := file
			d.name, d.member, d.method, d.pos = name, member, method, fset.Position(n.Pos())
			decls = append(decls, d)
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					declare(decl.Name, decl.Name.Name, "", false)
					continue
				}
				recv := decl.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					declare(decl.Name, id.Name, decl.Name.Name, true)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							declare(n, n.Name, "", false)
						}
					case *ast.TypeSpec:
						declare(spec.Name, spec.Name.Name, "", false)
						if st, ok := spec.Type.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								for _, n := range field.Names {
									declare(n, spec.Name.Name, n.Name, false)
								}
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}
