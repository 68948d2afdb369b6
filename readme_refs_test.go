package pnetcdf_test

import (
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

// internalDecls maps each package under internal/ (an external test
// package under its own name) to its top-level declarations, and each of
// those to its fields and methods.
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
		declare := func(name string) map[string]bool {
			if decls[pkg][name] == nil {
				decls[pkg][name] = map[string]bool{}
			}
			return decls[pkg][name]
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					declare(decl.Name.Name)
					continue
				}
				recv := decl.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					declare(id.Name)[decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							declare(n.Name)
						}
					case *ast.TypeSpec:
						members := declare(spec.Name.Name)
						if st, ok := spec.Type.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								for _, n := range field.Names {
									members[n.Name] = true
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
