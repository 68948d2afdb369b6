package analysis

import (
	"path/filepath"
	"testing"
)

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

// runGoldenInterp is the interprocedural golden harness: it runs the named
// checker with the module engine over every package of the fixture tree and
// matches the want comments — then re-runs the same checker
// intraprocedurally and requires silence, proving the engine sees strictly
// more than the per-function analysis.
func runGoldenInterp(t *testing.T, checkerName, fixture string) {
	t.Helper()
	pkgs := loadFixtureTree(t, fixture)
	checkers, err := ByName(checkerName)
	if err != nil {
		t.Fatal(err)
	}

	diags := RunCheckersInterp(pkgs, checkers)
	var wants []wantSpec
	for _, pkg := range pkgs {
		wants = append(wants, parseWants(t, pkg)...)
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments; the golden test would pass vacuously", fixture)
	}
	matched := make([]bool, len(wants))
	for _, d := range diags {
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

	// The strictly-more proof: every finding above needed the engine.
	for _, d := range RunCheckers(pkgs, checkers) {
		t.Errorf("fixture %s is not clean intraprocedurally — the interp fixture no longer isolates engine-only findings: %s", fixture, d)
	}
}

func TestCollSymInterpGolden(t *testing.T)   { runGoldenInterp(t, "collsym", "collsym_interp") }
func TestBufPoolInterpGolden(t *testing.T)   { runGoldenInterp(t, "bufpool", "bufpool_interp") }
func TestLockOrderInterpGolden(t *testing.T) { runGoldenInterp(t, "lockorder", "lockorder_interp") }

// TestRepoCleanInterp is the interprocedural self-check mirroring
// TestRepoClean: the full suite, summaries enabled, must be silent on the
// repository itself (justified //nclint:allow annotations included).
func TestRepoCleanInterp(t *testing.T) {
	l := sharedLoader(t)
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	for _, d := range RunCheckersInterp(pkgs, All()) {
		t.Errorf("repo not nclint-clean in interp mode: %s", d)
	}
}
