package pnetcdf_test

// The simulator has no wall clock: every duration under internal/ is virtual
// time, charged by the cost models of mpi and pfs, so a run's outcome —
// bytes, errors, clocks, and since the failure detector works by quiescence
// also which rank notices a death when — is a function of the program and
// not of the host. This test keeps that true: no non-test file under
// internal/ may import "time". (Harness code that times the host lives
// outside internal/: benchmark/ and cmd/.)

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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
