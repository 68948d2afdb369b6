package pnetcdf_test

import (
	"encoding/json"
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

// TestReadmeReferencesResolve: every backticked token in README.md,
// DESIGN.md and EXPERIMENTS.md that names this module's code, a benchmark
// metric or a file resolves, so a document that still names deleted code
// fails here. A backticked name is a claim that the name exists; a deleted
// one is written without backticks.
//
//   - A `pkg.Name` or `*pkg.Name` must be a declaration of a package under
//     internal/, test files included, and a `pkg.Type.Member` a field or
//     method of that type: a method is written with its type. The
//     declarations come from go/parser alone, without type checking.
//   - A `pkg.name` that is a metric BENCHMARK.json declares (`mpi.msgs`)
//     resolves as well.
//   - A path under cmd/, internal/, results/, benchmark/ or examples/, or
//     any path ending in a file extension, must exist as written from the
//     repository root; a bare file name must be some file's name.
//   - No line reference (file.go:NN), backticked or not: line numbers move
//     with every edit, so a document names the function instead.
func TestReadmeReferencesResolve(t *testing.T) {
	decls := internalDecls(t)
	metrics := map[string]bool{}
	var decl struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &decl)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		metrics[m.Name] = true
	}
	names := map[string]bool{} // the base name of every file of the module
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() {
			names[d.Name()] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ident := `[A-Za-z_][A-Za-z0-9_]*`
	ref := regexp.MustCompile(`^\*?([a-z][a-z0-9]*)\.(` + ident + `)(?:\.(` + ident + `))?(?:\(\))?$`)
	fileExt := regexp.MustCompile(`\.(go|md|json|txt|sh|nc)$`)
	lineRef := regexp.MustCompile(`[A-Za-z0-9_]+\.go:[0-9]+`)
	rooted := regexp.MustCompile(`^(cmd|internal|results|benchmark|examples)/`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range lineRef.FindAllString(string(text), -1) {
			t.Errorf("%s cites %s: name the function, not the line", doc, m)
		}
		checked := 0
		for _, m := range regexp.MustCompile("`([^`\n]+)`").FindAllStringSubmatch(string(text), -1) {
			tok := m[1]
			if sub := ref.FindStringSubmatch(tok); sub != nil && decls[sub[1]] != nil && !fileExt.MatchString(tok) {
				checked++
				members, ok := decls[sub[1]][sub[2]]
				switch {
				case sub[3] == "" && metrics[sub[1]+"."+sub[2]]:
				case !ok:
					t.Errorf("%s names `%s`: package %s declares no %s", doc, tok, sub[1], sub[2])
				case sub[3] != "" && !members[sub[3]]:
					t.Errorf("%s names `%s`: %s.%s has no field or method %s", doc, tok, sub[1], sub[2], sub[3])
				}
				continue
			}
			if strings.ContainsAny(tok, " *<…{}") || strings.Contains(tok, "...") {
				continue // a command, a pattern or a placeholder, not a path
			}
			path := strings.TrimSuffix(tok, "/")
			switch {
			case rooted.MatchString(path) || strings.Contains(path, "/") && fileExt.MatchString(path):
				checked++
				if _, err := os.Stat(path); err != nil {
					t.Errorf("%s names `%s`, which does not exist (a path is written from the repository root)", doc, tok)
				}
			case fileExt.MatchString(path):
				checked++
				if !names[path] {
					t.Errorf("%s names `%s`, which is no file of the module", doc, tok)
				}
			}
		}
		if checked == 0 {
			t.Fatalf("%s names nothing of the module: the test checked nothing", doc)
		}
	}
}

// TestDesignSectionsResolve: every "DESIGN.md §N" outside CHANGES.md, which
// is history, names a "## N." heading DESIGN.md has. A Go comment may break
// the reference across lines, and a list ("DESIGN.md §3, §4") names each of
// its sections.
func TestDesignSectionsResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## ([0-9]+)\.`).FindAllStringSubmatch(string(design), -1) {
		have[m[1]] = true
	}
	refs := regexp.MustCompile(`DESIGN\.md[\s/#*]*((?:§[0-9]+)(?:(?:,|\+|and|[\s/#])+§[0-9]+)*)`)
	section := regexp.MustCompile(`§([0-9]+)`)
	text := regexp.MustCompile(`\.(go|md|sh)$`)
	checked := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." && d.Name() != ".claude" {
				return filepath.SkipDir
			}
			return nil
		}
		if path == "CHANGES.md" || !text.MatchString(path) {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range refs.FindAllStringSubmatch(string(b), -1) {
			for _, n := range section.FindAllStringSubmatch(m[1], -1) {
				checked++
				if !have[n[1]] {
					t.Errorf("%s cites DESIGN.md §%s, which DESIGN.md has no \"## %s.\" heading for", filepath.ToSlash(path), n[1], n[1])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no DESIGN.md §N reference found: the test checked nothing")
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
		if !checkedDir(p.dir) {
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
	fields, nfields := unreadFields(m)
	if len(fields) > 0 {
		t.Errorf("%d struct fields are never read by non-test code: delete each, and restate the tests that set it:\n%s",
			len(fields), strings.Join(fields, "\n"))
	}
	params, nparams := unusedParams(m)
	if len(params) > 0 {
		t.Errorf("%d parameters are never used by their function: drop each, or name it _ where a signature is fixed:\n%s",
			len(params), strings.Join(params, "\n"))
	}
	if nfields == 0 || nparams == 0 {
		t.Fatal("no struct field or no parameter found under internal/ and cmd/: the guard checked nothing")
	}
	t.Logf("%d exported declarations under internal/, %d other declarations, %d struct fields and %d parameters under internal/ and cmd/, %d allowlist entries",
		exported, unexported, nfields, nparams, len(allowed))
}

// checkedDir reports whether a package's own declarations are held to the
// caller guards: those under internal/ and cmd/.
func checkedDir(dir string) bool {
	return strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/")
}

// unreadFields lists the struct fields declared in a non-test file under
// internal/ or cmd/ that no non-test file reads, with the number checked. A
// read is a selector anywhere but the left side of an assignment or an
// increment, so a field only a composite literal or an assignment sets is
// unread. Embedded fields are exempt, and so is every field of a struct
// with a tag (encoding/json reads those), of a struct that is compared with
// == or != and of one that keys a map: each of those reads all its fields.
func unreadFields(m *module) (unread []string, checked int) {
	read := map[*types.Var]bool{}
	whole := map[*types.Struct]bool{} // compared, or a map key
	structOf := func(t types.Type) *types.Struct {
		if n, ok := types.Unalias(t).(*types.Named); ok {
			t = n.Origin()
		}
		s, _ := t.Underlying().(*types.Struct)
		return s
	}
	for _, p := range m.pkgs {
		for _, tv := range p.info.Types {
			if mt, ok := tv.Type.(*types.Map); ok {
				if s := structOf(mt.Key()); s != nil {
					whole[s] = true
				}
			}
		}
		for _, f := range p.files {
			written := map[*ast.SelectorExpr]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				var lhs []ast.Expr
				switch n := n.(type) {
				case *ast.AssignStmt:
					lhs = n.Lhs
				case *ast.IncDecStmt:
					lhs = []ast.Expr{n.X}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						if s := structOf(p.info.TypeOf(n.X)); s != nil {
							whole[s] = true
						}
					}
				}
				for _, e := range lhs {
					if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
						written[sel] = true
					}
				}
				return true
			})
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && !written[sel] {
					if s := p.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
						read[s.Obj().(*types.Var).Origin()] = true
					}
				}
				return true
			})
		}
	}
	for _, p := range m.pkgs {
		if !checkedDir(p.dir) {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				s, _ := p.info.TypeOf(st).(*types.Struct)
				if s == nil || whole[s] {
					return true
				}
				for i := 0; i < s.NumFields(); i++ {
					if s.Tag(i) != "" {
						return true
					}
				}
				for i := 0; i < s.NumFields(); i++ {
					if fv := s.Field(i); !fv.Embedded() && fv.Name() != "_" {
						checked++
						if !read[fv] {
							unread = append(unread, fmt.Sprintf("%s: field %s", m.fset.Position(fv.Pos()), fv.Name()))
						}
					}
				}
				return true
			})
		}
	}
	return unread, checked
}

// unusedParams lists the parameters of functions and methods declared in a
// non-test file under internal/ or cmd/ that their body never uses, with
// the number checked. A parameter named _ is exempt, and so is every
// parameter of a function used as a value and of a method that implements
// an interface method: their signature is fixed by what they stand in for.
// The interfaces are those the module's non-test code names, and those of
// the parameters of functions it uses (fmt.Fprintf's io.Writer, say).
func unusedParams(m *module) (unused []string, checked int) {
	used := map[types.Object]bool{}
	asValue := map[types.Object]bool{} // functions and methods used other than by a call
	var ifaces []*types.Interface
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	for _, p := range m.pkgs {
		for _, tv := range p.info.Types {
			addIface(tv.Type)
		}
		called := map[*ast.Ident]bool{}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					fun := ast.Unparen(call.Fun)
					if ix, ok := fun.(*ast.IndexExpr); ok {
						fun = ix.X
					} else if ix, ok := fun.(*ast.IndexListExpr); ok {
						fun = ix.X
					}
					switch fun := fun.(type) {
					case *ast.Ident:
						called[fun] = true
					case *ast.SelectorExpr:
						called[fun.Sel] = true
					}
				}
				return true
			})
		}
		for id, obj := range p.info.Uses {
			used[obj] = true
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if !called[id] {
				asValue[fn.Origin()] = true
			}
			sig := fn.Type().(*types.Signature)
			for i := 0; i < sig.Params().Len(); i++ {
				addIface(sig.Params().At(i).Type())
			}
		}
	}
	implements := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() &&
					(types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
					return true
				}
			}
		}
		return false
	}
	for _, p := range m.pkgs {
		if !checkedDir(p.dir) {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				if asValue[fn] || fd.Recv != nil && implements(fn) {
					continue
				}
				for _, field := range fd.Type.Params.List {
					for _, id := range field.Names {
						if id.Name == "_" {
							continue
						}
						checked++
						if !used[p.info.Defs[id]] {
							unused = append(unused, fmt.Sprintf("%s: parameter %s of %s", m.fset.Position(id.Pos()), id.Name, fd.Name.Name))
						}
					}
				}
			}
		}
	}
	return unused, checked
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
