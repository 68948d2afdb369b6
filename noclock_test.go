package pnetcdf_test

// The simulator has no wall clock: every duration under internal/ is virtual
// time, charged by the cost models of mpi and pfs, so a run's outcome —
// bytes, errors, clocks, and since the failure detector works by quiescence
// also which rank notices a death when — is a function of the program and
// not of the host. This test keeps that true: no non-test file under
// internal/ may import "time". (Harness code that times the host lives
// outside internal/: benchmark/ and cmd/.)

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

func TestInternalHasNoWallClock(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		for _, imp := range f.Imports {
			if imp.Path.Value == `"time"` {
				t.Errorf("%s imports \"time\": internal/ runs on virtual time only", fset.Position(imp.Pos()))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no Go files found under internal/: the guard checked nothing")
	}
}
