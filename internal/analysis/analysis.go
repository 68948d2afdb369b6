// Package analysis is a stdlib-only static-analysis framework (go/parser,
// go/ast, go/types, go/importer — no x/tools) carrying the project-specific
// checkers whose bugs no test catches first (DESIGN.md §10): the pfs
// lock-acquisition order, cost-model/iostat accounting in every pfs data
// path, and checked errors on I/O teardown calls. Every checker runs with the
// module-wide call graph and its per-function summaries (callgraph.go,
// DESIGN.md §14), so an invariant stays visible when its code moves into a
// helper in another package. The cmd/nclint driver runs the suite over the
// module; verify.sh gates every PR on a clean run.
//
// # Suppressions
//
// A diagnostic can be suppressed at its site with a justified annotation on
// the flagged line or the line above it:
//
//	//nclint:allow=<checker> -- <why this is safe>
//
// The justification text is mandatory; a bare annotation still reports.
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
// information, the module-wide engine for cross-function summaries, and a
// Report sink.
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
func (p *Pass) Callee(call *ast.CallExpr) *types.Func { return calleeOf(p.Pkg, call) }

// Checker is one named analysis over a single package.
type Checker struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns the full checker suite in stable order.
func All() []*Checker {
	return []*Checker{
		LockOrder(),
		Accounting(),
		ErrCheckIO(),
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

// Run builds the module-wide engine over pkgs, applies each checker to each
// package with it, and returns the combined diagnostics sorted
// deterministically.
func Run(pkgs []*Package, checkers []*Checker) []Diagnostic {
	engine := NewEngine(pkgs)
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
