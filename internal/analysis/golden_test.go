package analysis

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The golden-file convention: a fixture line that should produce a
// diagnostic carries a trailing comment
//
//	// want `regexp` `another regexp`
//
// with one backtick-quoted regexp per expected diagnostic on that line. The
// harness fails on any diagnostic without a matching want AND on any want
// without a matching diagnostic — so every golden test fails outright if its
// checker is disabled or stops firing.

var (
	loaderOnce sync.Once
	loaderVal  *Loader
	loaderErr  error
)

// sharedLoader builds one Loader for the whole test binary: the source
// importer re-type-checks stdlib dependencies from GOROOT, which is worth
// paying once, not per test.
func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			loaderErr = err
			return
		}
		loaderVal, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return loaderVal
}

type wantSpec struct {
	file string
	line int
	re   *regexp.Regexp
}

var (
	wantLineRE = regexp.MustCompile(`// want (.*)$`)
	wantArgRE  = regexp.MustCompile("`([^`]+)`")
)

func parseWants(t *testing.T, pkg *Package) []wantSpec {
	t.Helper()
	var wants []wantSpec
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantLineRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				args := wantArgRE.FindAllStringSubmatch(m[1], -1)
				if len(args) == 0 {
					t.Fatalf("%s:%d: malformed want comment (need backtick-quoted regexps): %s",
						pos.Filename, pos.Line, c.Text)
				}
				for _, a := range args {
					re, err := regexp.Compile(a[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, a[1], err)
					}
					wants = append(wants, wantSpec{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// loadFixtureTree loads a (possibly multi-package) fixture via LoadTree so
// fixture-internal imports like fixture/<name>/helper resolve.
func loadFixtureTree(t *testing.T, fixture string) []*Package {
	t.Helper()
	l := sharedLoader(t)
	dir, err := filepath.Abs(filepath.Join("testdata", "src", fixture))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadTree("fixture/"+fixture, dir)
	if err != nil {
		t.Fatalf("load fixture tree %s: %v", fixture, err)
	}
	return pkgs
}

// runGolden loads testdata/src/<fixture> with every package under it, runs
// the single named checker, and matches the diagnostics against the
// fixture's want comments.
func runGolden(t *testing.T, checkerName, fixture string) {
	t.Helper()
	pkgs := loadFixtureTree(t, fixture)
	checkers, err := ByName(checkerName)
	if err != nil {
		t.Fatal(err)
	}
	var wants []wantSpec
	for _, pkg := range pkgs {
		wants = append(wants, parseWants(t, pkg)...)
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments; the golden test would pass vacuously", fixture)
	}
	matched := make([]bool, len(wants))
	for _, d := range Run(pkgs, checkers) {
		found := false
		for i, w := range wants {
			if !matched[i] && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: missing diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

func TestLockOrderGolden(t *testing.T)       { runGolden(t, "lockorder", "lockorder") }
func TestLockOrderInterpGolden(t *testing.T) { runGolden(t, "lockorder", "lockorder_interp") }
func TestAccountingGolden(t *testing.T)      { runGolden(t, "accounting", "accounting") }
func TestErrCheckIOGolden(t *testing.T)      { runGolden(t, "errcheckio", "errcheckio") }

// TestRepoClean is the self-check: the suite must report nothing on the
// repository itself (justified //nclint:allow annotations included), so a PR
// that introduces a violation (or a checker change that misfires on existing
// code) fails here before verify.sh runs nclint.
func TestRepoClean(t *testing.T) {
	l := sharedLoader(t)
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	for _, d := range Run(pkgs, All()) {
		t.Errorf("repo not nclint-clean: %s", d)
	}
}

// TestRepoCleanInterp is the other half of the self-check: the clean verdict
// must not rest on a stale suppression. It reruns the interprocedural suite
// over the module with every //nclint:allow ignored, then requires each
// diagnostic to sit under an allow for its checker and each allow to name
// only live checkers and to cover at least one diagnostic — so deleting a
// checker, or fixing the code an allow excused, also retires the annotation.
func TestRepoCleanInterp(t *testing.T) {
	l := sharedLoader(t)
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	live := map[string]bool{}
	for _, c := range All() {
		live[c.Name] = true
	}
	type site struct {
		file    string
		line    int
		checker string
	}
	used := map[site]bool{}
	bare := make([]*Package, len(pkgs))
	for i, pkg := range pkgs {
		cp := *pkg
		cp.allows = nil
		bare[i] = &cp
		for file, allows := range pkg.allows {
			for _, a := range allows {
				for _, name := range strings.Split(a.checkers, ",") {
					if !live[name] {
						t.Errorf("%s:%d: //nclint:allow names unknown checker %q", file, a.line, name)
						continue
					}
					used[site{file, a.line, name}] = false
				}
			}
		}
	}
	for _, d := range Run(bare, All()) {
		covered := false
		for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
			s := site{d.Pos.Filename, line, d.Checker}
			if _, ok := used[s]; ok {
				used[s] = true
				covered = true
			}
		}
		if !covered {
			t.Errorf("repo not nclint-clean in interp mode: %s", d)
		}
	}
	for s, hit := range used {
		if !hit {
			t.Errorf("%s:%d: //nclint:allow=%s suppresses nothing", s.file, s.line, s.checker)
		}
	}
}

// TestByNameUnknown pins the driver-facing error for a typo'd -c flag.
func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("lockorder,nosuch"); err == nil {
		t.Fatal("ByName accepted an unknown checker name")
	}
	cs, err := ByName("lockorder")
	if err != nil || len(cs) != 1 || cs[0].Name != "lockorder" {
		t.Fatalf("ByName(lockorder) = %v, %v", cs, err)
	}
}

// TestSuppressionNeedsJustification pins that a bare //nclint:allow without
// the `-- reason` part does NOT suppress (the regexp requires it).
func TestSuppressionNeedsJustification(t *testing.T) {
	pkg := &Package{
		allows: map[string][]allow{},
	}
	if pkg.suppressed("accounting", mkPos("x.go", 10)) {
		t.Fatal("empty allow table suppressed a diagnostic")
	}
	pkg.allows["x.go"] = []allow{{line: 9, checkers: "accounting,lockorder"}}
	if !pkg.suppressed("accounting", mkPos("x.go", 10)) {
		t.Fatal("line-above allow did not suppress")
	}
	if !pkg.suppressed("lockorder", mkPos("x.go", 9)) {
		t.Fatal("same-line allow did not suppress")
	}
	if pkg.suppressed("errcheckio", mkPos("x.go", 10)) {
		t.Fatal("allow for other checkers suppressed errcheckio")
	}
	if pkg.suppressed("accounting", mkPos("x.go", 12)) {
		t.Fatal("allow two lines up suppressed")
	}
}

func mkPos(file string, line int) token.Position {
	return token.Position{Filename: file, Line: line}
}
