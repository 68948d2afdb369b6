package pnetcdf_test

// Guards that read the source for what the compiler cannot see (DESIGN.md
// §10). The simulator has no wall clock: every duration under internal/ is
// virtual time, charged by the cost models of mpi and pfs, so a run's
// outcome — bytes, errors, clocks, and since the failure detector works by
// quiescence also which rank notices a death when — is a function of the
// program and not of the host. TestInternalHasNoWallClock keeps that true:
// no non-test file under internal/ may import "time". (Harness code that
// times the host lives outside internal/: benchmark/ and cmd/.)

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// eachInternalFile parses every non-test Go file under internal/ and hands
// it to check.
func eachInternalFile(t *testing.T, mode parser.Mode, check func(fset *token.FileSet, path string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, mode)
		if err != nil {
			return err
		}
		files++
		check(fset, filepath.ToSlash(path), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no Go files found under internal/: the guard checked nothing")
	}
}

func TestInternalHasNoWallClock(t *testing.T) {
	eachInternalFile(t, parser.ImportsOnly, func(fset *token.FileSet, path string, f *ast.File) {
		for _, imp := range f.Imports {
			if imp.Path.Value == `"time"` {
				t.Errorf("%s imports \"time\": internal/ runs on virtual time only", fset.Position(imp.Pos()))
			}
		}
	})
}

// The same goes for the environment: what a run does is set by its hints and
// options, which a test or a job script passes and a reader can see — never
// by an ambient variable.
func TestInternalReadsNoEnvironment(t *testing.T) {
	eachInternalFile(t, parser.SkipObjectResolution, func(fset *token.FileSet, path string, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "os" || (sel.Sel.Name != "Getenv" && sel.Sel.Name != "LookupEnv") {
				return true
			}
			t.Errorf("%s reads the environment (os.%s): pass a hint or an option instead", fset.Position(sel.Pos()), sel.Sel.Name)
			return true
		})
	})
}

// TestIOErrorsAreChecked: Close, Sync, Flush and Write* return the errors
// that matter most to a storage library — a buffered writer or a journaled
// header commit often fails only there — so no call to one may drop its error
// as a bare statement, a defer or a go statement. `_ =` is a visible discard
// and passes. *bytes.Buffer and *strings.Builder never fail and are exempt.
// Telling those apart, and a Write* that returns no error, takes types, so
// every package of the module is type-checked against the compiler's export
// data.
func TestIOErrorsAreChecked(t *testing.T) {
	out, err := exec.Command("go", "list", "-export", "-deps", "-f",
		"{{.ImportPath}}\t{{.Export}}{{if not .DepOnly}}\t{{.Dir}}\t{{join .GoFiles `\t`}}{{end}}", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	exports := map[string]string{}
	var pkgs [][]string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		exports[f[0]] = f[1]
		// A package of test files alone (internal/integration) has nothing
		// to check: its file list is empty.
		if len(f) > 3 && f[3] != "" {
			pkgs = append(pkgs, f)
		}
	}
	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})}
	wd, _ := os.Getwd()
	for _, p := range pkgs {
		dir, _ := filepath.Rel(wd, p[2])
		var files []*ast.File
		for _, name := range p[3:] {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		if _, err := conf.Check(p[0], fset, files, info); err != nil {
			t.Fatalf("type-check %s: %v", p[0], err)
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				var call *ast.CallExpr
				how := "a bare call"
				switch n := n.(type) {
				case *ast.ExprStmt:
					call, _ = ast.Unparen(n.X).(*ast.CallExpr)
				case *ast.DeferStmt:
					call, how = n.Call, "a defer"
				case *ast.GoStmt:
					call, how = n.Call, "a go statement"
				}
				if call == nil {
					return true
				}
				if name, ok := dropsIOError(info, call); ok {
					t.Errorf("%s: %s's error is dropped by %s: handle it, or discard it with _ =", fset.Position(call.Pos()), name, how)
				}
				return true
			})
		}
	}
	if len(pkgs) == 0 {
		t.Fatal("go list found no packages: the guard checked nothing")
	}
}

// dropsIOError reports whether call, whose results are unused, is to a
// Close, Sync, Flush or Write* that returns an error, and names it.
func dropsIOError(info *types.Info, call *ast.CallExpr) (string, bool) {
	fun := ast.Unparen(call.Fun)
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		fun = sel.Sel
	}
	id, _ := fun.(*ast.Ident)
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return "", false
	}
	name := fn.Name()
	if name != "Close" && name != "Sync" && name != "Flush" && !strings.HasPrefix(name, "Write") {
		return "", false
	}
	sig := fn.Type().(*types.Signature)
	res := sig.Results()
	if res.Len() == 0 || !types.Identical(res.At(res.Len()-1).Type(), types.Universe.Lookup("error").Type()) {
		return "", false
	}
	if recv := sig.Recv(); recv != nil {
		switch types.TypeString(recv.Type(), nil) {
		case "*bytes.Buffer", "*strings.Builder":
			return "", false
		}
	}
	return name, true
}

// TestLockSections checks two rules that keep locks from deadlocking the
// data plane, which no test can provoke on demand:
//
//   - Every Lock, RLock and LockRMW has its release in the same function,
//     and no way out of the block that takes it leaves while it is held: no
//     return, goto or labeled branch, and no break or continue to a loop or
//     switch outside it, before the release. A deferred release covers the
//     whole function, and a call of a local closure that releases the lock
//     counts as the release (mpiio's sieving write hands its range lock to
//     one).
//   - pfs's srvMu is a leaf: between srvMu.Lock() and its Unlock — to the
//     end of the block when the Unlock is deferred — only math.Max, builtins
//     and conversions may be called. srvMu is the innermost lock class, and
//     the only nesting today is the RMW range lock, which mpiio holds, around
//     the chunk shard locks and srvMu; so a section that calls nothing else
//     cannot take a lock out of order.
func TestLockSections(t *testing.T) {
	eachInternalFile(t, parser.SkipObjectResolution, func(fset *token.FileSet, path string, f *ast.File) {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
				checkLocks(t, fset, strings.HasPrefix(path, "internal/pfs/"), fn.Body)
			}
		}
	})
}

// checkLocks applies TestLockSections' rules to one function body.
func checkLocks(t *testing.T, fset *token.FileSet, inPFS bool, body *ast.BlockStmt) {
	release := map[string]string{"Lock": "Unlock", "RLock": "RUnlock", "LockRMW": "UnlockRMW"}
	pure := map[string]bool{"math.Max": true, "len": true, "min": true, "max": true, "float64": true, "int64": true, "int": true}
	// Every call in the function, closures included; the deferred ones; and
	// what each local closure calls, by the closure's name.
	calls, deferred, closures := callsIn(body), map[string]bool{}, map[string]map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			for name := range callsIn(n) {
				deferred[name] = true
			}
		case *ast.AssignStmt:
			if lit, ok := n.Rhs[0].(*ast.FuncLit); ok && len(n.Lhs) == 1 {
				closures[types.ExprString(n.Lhs[0])] = callsIn(lit)
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		}
		for i, s := range list {
			name := callName(s)
			dot := strings.LastIndexByte(name, '.')
			recv, method := name[:max(dot, 0)], name[dot+1:]
			if dot < 0 || release[method] == "" {
				continue
			}
			unlock, lock := recv+"."+release[method], fset.Position(s.Pos())
			releases := func(s ast.Stmt) bool { return callName(s) == unlock || closures[callName(s)][unlock] }
			if !calls[unlock] {
				t.Errorf("%s: %s() has no %s in this function", lock, name, unlock)
			}
			for _, s := range list[i+1:] {
				if !inPFS || !strings.HasSuffix(recv, ".srvMu") || releases(s) {
					break
				}
				ast.Inspect(s, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok && types.ExprString(call.Fun) != unlock && !pure[types.ExprString(call.Fun)] {
						t.Errorf("%s: %s called while srvMu is held", fset.Position(call.Pos()), types.ExprString(call.Fun))
					}
					return true
				})
			}
			if deferred[unlock] {
				continue
			}
			// Walk the rest of the block to the release, into nested blocks,
			// knowing whether a break or continue there stays inside.
			var walk func(list []ast.Stmt, inLoop, inSwitch bool)
			walk = func(list []ast.Stmt, inLoop, inSwitch bool) {
				for _, s := range list {
					if releases(s) {
						return
					}
					exit := ""
					switch s := s.(type) {
					case *ast.ReturnStmt:
						exit = "return"
					case *ast.BranchStmt:
						if s.Label != nil || s.Tok == token.GOTO || s.Tok == token.CONTINUE && !inLoop || s.Tok == token.BREAK && !inLoop && !inSwitch {
							exit = s.Tok.String()
						}
					}
					if exit != "" {
						t.Errorf("%s: %s leaves the block of %s() (line %d) with the lock held", fset.Position(s.Pos()), exit, name, lock.Line)
					}
					ast.Inspect(s, func(n ast.Node) bool {
						switch n := n.(type) {
						case *ast.ForStmt:
							walk(n.Body.List, true, inSwitch)
						case *ast.RangeStmt:
							walk(n.Body.List, true, inSwitch)
						case *ast.CaseClause:
							walk(n.Body, inLoop, true)
						case *ast.CommClause:
							walk(n.Body, inLoop, true)
						case *ast.BlockStmt:
							walk(n.List, inLoop, inSwitch)
						default:
							_, lit := n.(*ast.FuncLit)
							return !lit
						}
						return false
					})
				}
			}
			walk(list[i+1:], false, false)
		}
		return true
	})
}

// callName is the text of the function a bare-call statement calls, or "".
func callName(s ast.Stmt) string {
	if es, ok := s.(*ast.ExprStmt); ok {
		if call, ok := es.X.(*ast.CallExpr); ok {
			return types.ExprString(call.Fun)
		}
	}
	return ""
}

// callsIn is the text of every function called under n.
func callsIn(n ast.Node) map[string]bool {
	seen := map[string]bool{}
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			seen[types.ExprString(call.Fun)] = true
		}
		return true
	})
	return seen
}
