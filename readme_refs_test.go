package pnetcdf_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
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
// another package calls it, and nothing under internal/ or cmd/ is declared
// that nothing calls. The module's API is the netCDF/PnetCDF dataset
// interface (paper §3) plus what cmd/, examples/ and benchmark/ use; a name
// exported for a test alone, or for its own package alone, widens that
// surface and hides dead code. The uses come from loadModule's type check,
// so a use is of one object, never of a name another type shares:
//
//   - an exported function, type, var, const or method in a non-test file
//     under internal/ must be used by a non-test file of another package,
//     or be on the allowlist below;
//   - any other function, type, var, const or method in a non-test file
//     under internal/ or cmd/ must be used by some non-test file;
//   - a method also counts as used where its type implements an interface
//     method that some non-test file calls, and Error and String, which the
//     standard library calls, always do.
//
// benchmark/'s and examples/' own declarations are not checked: they only
// use.
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
		// Test hooks.
		"fault.Injector.ArmCrash": "the crash point the crash-consistency tests arm",
		"pfs.File.WriteAt":        "benchmark/'s test corrupts a file through it",
		"span.Recorder.Open":      "the span-closure check core and mpiio tests make after a fault; Spans clamps an open span's End, so nothing else sees one",
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
	m := loadModule(t)

	// Every object a non-test file uses, whether another package uses it,
	// and the interface methods called.
	used, usedOutside := map[types.Object]bool{}, map[types.Object]bool{}
	var ifaceCalls []*types.Func
	for _, p := range m.pkgs {
		for _, obj := range p.info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
				if recv := o.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					ifaceCalls = append(ifaceCalls, o)
				}
			case *types.Var:
				obj = o.Origin()
			}
			used[obj] = true
			usedOutside[obj] = usedOutside[obj] || obj.Pkg() != p.types
		}
	}
	// implementsCalled reports whether method fn implements an interface
	// method some non-test file calls.
	implementsCalled := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		named, _ := recv.(*types.Named)
		for _, c := range ifaceCalls {
			if c.Name() != fn.Name() {
				continue
			}
			iface := c.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if named == nil || named.TypeParams().Len() > 0 ||
				types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
				return true
			}
		}
		return false
	}

	matched := map[string]bool{} // allowlist entries that covered a declaration
	var missing []string
	exported, unexported := 0, 0
	for _, p := range m.pkgs {
		if !strings.HasPrefix(p.dir, "internal/") && !strings.HasPrefix(p.dir, "cmd/") {
			continue
		}
		for _, f := range p.files {
			for _, obj := range declaredObjects(p.info, f) {
				name, keys := p.types.Name()+"."+obj.Name(), []string{p.types.Name()}
				ok := false // a method called through an interface or by the standard library
				if fn, _ := obj.(*types.Func); fn != nil && fn.Type().(*types.Signature).Recv() != nil {
					recv := types.TypeString(fn.Type().(*types.Signature).Recv().Type(), func(*types.Package) string { return "" })
					typ := p.types.Name() + "." + strings.TrimPrefix(recv, "*")
					name = typ + "." + obj.Name()
					keys = append(keys, typ+".*")
					ok = obj.Name() == "Error" || obj.Name() == "String" || implementsCalled(fn)
				}
				if obj.Exported() && strings.HasPrefix(p.dir, "internal/") {
					exported++
					ok = ok || usedOutside[obj]
					for _, k := range append(keys, name) {
						if !ok && allowed[k] != "" {
							ok, matched[k] = true, true
						}
					}
				} else {
					unexported++
					ok = ok || used[obj]
				}
				if !ok {
					missing = append(missing, fmt.Sprintf("%s: %s", m.fset.Position(obj.Pos()), name))
				}
			}
		}
	}
	if exported == 0 {
		t.Fatal("no exported declaration found under internal/: the guard checked nothing")
	}
	if len(missing) > 0 {
		t.Errorf("%d declarations have no caller: delete or unexport each, or allowlist an exported one with a reason (an exported name under internal/ needs a caller in another package):\n%s",
			len(missing), strings.Join(missing, "\n"))
	}
	for key := range allowed {
		if !matched[key] {
			t.Errorf("allowlist entry %q covers no declaration that lacks a caller", key)
		}
	}
	t.Logf("%d exported declarations under internal/, %d other declarations under internal/ and cmd/, %d allowlist entries", exported, unexported, len(allowed))
}

// declaredObjects lists the functions, methods, types, vars and consts file
// f declares at package level, but not init, main or the blank identifier.
func declaredObjects(info *types.Info, f *ast.File) []types.Object {
	var objs []types.Object
	declare := func(id *ast.Ident) {
		if id.Name != "_" && info.Defs[id] != nil {
			objs = append(objs, info.Defs[id])
		}
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv != nil || decl.Name.Name != "init" && (decl.Name.Name != "main" || f.Name.Name != "main") {
				declare(decl.Name)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						declare(n)
					}
				case *ast.TypeSpec:
					declare(spec.Name)
				}
			}
		}
	}
	return objs
}

// internalDecls maps each package under internal/ (an external test
// package under its own name) to its top-level declarations, and each of
// those to its fields and methods: every Go file's, test files included,
// from go/parser alone.
func internalDecls(t *testing.T) map[string]map[string]map[string]bool {
	t.Helper()
	decls := map[string]map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if decls[pkg] == nil {
			decls[pkg] = map[string]map[string]bool{}
		}
		declare := func(name, member string) {
			if decls[pkg][name] == nil {
				decls[pkg][name] = map[string]bool{}
			}
			if member != "" {
				decls[pkg][name][member] = true
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					declare(decl.Name.Name, "")
					continue
				}
				recv := decl.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					declare(id.Name, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							declare(n.Name, "")
						}
					case *ast.TypeSpec:
						declare(spec.Name.Name, "")
						if st, ok := spec.Type.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								for _, n := range field.Names {
									declare(spec.Name.Name, n.Name)
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
