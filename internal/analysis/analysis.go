// Package analysis is a stdlib-only static-analysis framework (go/parser,
// go/ast, go/types, go/importer — no x/tools) carrying the project-specific
// checkers that keep PnetCDF-Go's hand-maintained invariants from rotting:
// collective call symmetry across ranks, the pfs lock-acquisition order,
// bufpool Get/Put pairing, cost-model/iostat accounting in every pfs data
// path, and checked errors on I/O teardown calls. The cmd/nclint driver runs
// the suite over the module; verify.sh gates every PR on a clean run
// (DESIGN.md §10).
//
// # Suppressions
//
// A diagnostic can be suppressed at its site with a justified annotation on
// the flagged line or the line above it:
//
//	//nclint:allow=<checker> -- <why this is safe>
//
// The justification text is mandatory; a bare annotation still reports. The
// bufpool checker additionally understands //nclint:escape (see checker doc)
// with the same justification requirement.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the checker that produced it, and
// the message. String renders the file:line: [checker] message convention.
type Diagnostic struct {
	Pos     token.Position
	Checker string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Checker, d.Message)
}

// Pass is one checker's view of one package: its syntax, its type
// information, and a Report sink. Engine is non-nil in interprocedural mode
// (RunCheckersInterp): checkers consult it for cross-function summaries and
// fall back to their intraprocedural behavior when it is nil.
type Pass struct {
	Fset    *token.FileSet
	Pkg     *Package
	Engine  *Engine
	checker string
	sink    *[]Diagnostic
}

// Reportf records a diagnostic at pos unless the site carries a justified
// suppression annotation for this checker.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.Pkg.suppressed(p.checker, position) {
		return
	}
	*p.sink = append(*p.sink, Diagnostic{
		Pos:     position,
		Checker: p.checker,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// Callee resolves a call expression to the *types.Func it invokes (methods
// and package-level functions), or nil for indirect calls, conversions and
// builtins.
func (p *Pass) Callee(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := p.Pkg.Info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := p.Pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// Checker is one named analysis over a single package.
type Checker struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns the full checker suite in stable order.
func All() []*Checker {
	return []*Checker{
		CollSym(),
		LockOrder(),
		BufPool(),
		SpanPair(),
		Accounting(),
		ErrCheckIO(),
		FTAgree(),
	}
}

// ByName returns the named subset of All (comma-separated), or an error
// naming the unknown checker.
func ByName(names string) ([]*Checker, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]*Checker{}
	for _, c := range All() {
		byName[c.Name] = c
	}
	var out []*Checker
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		c := byName[n]
		if c == nil {
			return nil, fmt.Errorf("unknown checker %q", n)
		}
		out = append(out, c)
	}
	return out, nil
}

// RunCheckers applies each checker to each package intraprocedurally and
// returns the combined diagnostics sorted deterministically.
func RunCheckers(pkgs []*Package, checkers []*Checker) []Diagnostic {
	return run(pkgs, checkers, nil)
}

// RunCheckersInterp builds the module-wide interprocedural engine over pkgs
// and runs each checker with it: summaries make the checkers see through
// helpers and cross-package extraction (DESIGN.md §14).
func RunCheckersInterp(pkgs []*Package, checkers []*Checker) []Diagnostic {
	return run(pkgs, checkers, NewEngine(pkgs))
}

func run(pkgs []*Package, checkers []*Checker, engine *Engine) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, c := range checkers {
			pass := &Pass{Fset: pkg.Fset, Pkg: pkg, Engine: engine, checker: c.Name, sink: &diags}
			c.Run(pass)
		}
	}
	// Deterministic order so repeated runs diff cleanly: file, line,
	// checker, then message as the final tie-break.
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Checker != b.Checker {
			return a.Checker < b.Checker
		}
		return a.Message < b.Message
	})
	return diags
}

var allowRE = regexp.MustCompile(`//nclint:allow=([a-z0-9_,-]+)\s*--\s*(\S.*)`)

// suppressed reports whether a justified //nclint:allow annotation for
// checker covers the given position (same line or the line above).
func (pkg *Package) suppressed(checker string, pos token.Position) bool {
	lines := pkg.allows[pos.Filename]
	for _, a := range lines {
		if a.line != pos.Line && a.line != pos.Line-1 {
			continue
		}
		for _, name := range strings.Split(a.checkers, ",") {
			if name == checker {
				return true
			}
		}
	}
	return false
}

type allow struct {
	line     int
	checkers string
}

// collectAllows indexes every justified //nclint:allow comment by file and
// line so Reportf can consult them in O(small).
func (pkg *Package) collectAllows() {
	pkg.allows = map[string][]allow{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				pkg.allows[pos.Filename] = append(pkg.allows[pos.Filename],
					allow{line: pos.Line, checkers: m[1]})
			}
		}
	}
}

// lineComment returns the comment text (if any) attached to the line of pos
// or the line above it in file f — the same placement rule the suppression
// annotations use.
func lineComments(fset *token.FileSet, f *ast.File, pos token.Pos) []string {
	target := fset.Position(pos).Line
	var out []string
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			l := fset.Position(c.Pos()).Line
			if l == target || l == target-1 {
				out = append(out, c.Text)
			}
		}
	}
	return out
}
