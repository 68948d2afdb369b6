package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package: syntax plus type info.
type Package struct {
	Path  string // import path
	Name  string // package name
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	allows map[string][]allow
}

// Loader parses and type-checks packages of one module using only the
// standard library: module-internal imports are resolved against the module
// root, everything else (the standard library) through the go/importer
// source importer, which type-checks from GOROOT sources and therefore needs
// no pre-built export data.
type Loader struct {
	Fset    *token.FileSet
	ModRoot string
	ModPath string

	std     types.Importer
	pkgs    map[string]*Package // by import path; nil entry = load in progress
	loading map[string]bool
	extra   map[string]string // registered import path -> directory (fixtures)
}

// NewLoader creates a loader for the module rooted at modRoot (the directory
// holding go.mod).
func NewLoader(modRoot string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module line in %s/go.mod", modRoot)
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		ModRoot: modRoot,
		ModPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
		extra:   map[string]string{},
	}, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// LoadModule loads every package of the module (skipping testdata, hidden
// and VCS directories), sorted by import path.
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModRoot && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var out []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.ModRoot, dir)
		if err != nil {
			return nil, err
		}
		path := l.ModPath
		if rel != "." {
			path = l.ModPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// Load type-checks the package with the given module-internal import path,
// resolving its directory under the module root.
func (l *Loader) Load(path string) (*Package, error) {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
	dir := filepath.Join(l.ModRoot, filepath.FromSlash(rel))
	return l.loadDir(path, dir)
}

// LoadTree loads the fixture rooted at dir, which lives outside the module's
// package tree: the root package under rootPath, and every subdirectory
// holding Go files as rootPath/<rel>. All packages are registered first so
// fixture-internal imports resolve, then loaded; the result is sorted by
// import path.
func (l *Loader) LoadTree(rootPath, dir string) ([]*Package, error) {
	type entry struct{ path, dir string }
	var entries []entry
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if !hasGoFiles(p) {
			return nil
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		path := rootPath
		if rel != "." {
			path = rootPath + "/" + filepath.ToSlash(rel)
		}
		l.extra[path] = p
		entries = append(entries, entry{path, p})
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, e := range entries {
		pkg, err := l.loadDir(e.path, e.dir)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

func (l *Loader) loadDir(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, filepath.Join(dir, name))
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: &moduleImporter{l: l},
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type errors in %s: %v", path, typeErrs[0])
	}
	pkg := &Package{
		Path:  path,
		Name:  files[0].Name.Name,
		Dir:   dir,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	pkg.collectAllows()
	l.pkgs[path] = pkg
	return pkg, nil
}

// moduleImporter routes module-internal import paths to the loader and
// everything else to the standard-library source importer.
type moduleImporter struct {
	l *Loader
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if dir, ok := m.l.extra[path]; ok {
		pkg, err := m.l.loadDir(path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if path == m.l.ModPath || strings.HasPrefix(path, m.l.ModPath+"/") {
		pkg, err := m.l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return m.l.std.Import(path)
}
