// nclint runs the project's static-analysis suite (internal/analysis) over
// the module: pfs lock ordering, pfs cost-model accounting, and unchecked
// I/O teardown errors. It exits 1 when any diagnostic is reported, so
// verify.sh can gate on it.
//
// Every checker sees through helper functions, including across packages:
// the suite runs over a module-wide call graph with per-function summaries
// (DESIGN.md §14).
//
// Usage:
//
//	nclint [-c checker,checker] [-json] [-list] [packages]
//
// Package patterns are accepted for interface-compatibility with go vet
// (`nclint ./...`) but the tool always analyzes the whole module containing
// the working directory: the invariants it checks are cross-package ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"pnetcdf/internal/analysis"
	"pnetcdf/internal/cmdutil"
)

// jsonDiag is the machine-readable diagnostic shape emitted by -json: one
// object per line-ordered finding, the same fields the text form prints.
type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Checker string `json:"checker"`
	Message string `json:"message"`
}

func main() {
	const tool = "nclint"
	var (
		checkers = flag.String("c", "", "comma-separated checker names to run (default: all)")
		list     = flag.Bool("list", false, "list available checkers and exit")
		jsonOut  = flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	)
	flag.Parse()

	if *list {
		for _, c := range analysis.All() {
			fmt.Printf("%-12s %s\n", c.Name, c.Doc)
		}
		return
	}

	suite, err := analysis.ByName(*checkers)
	if err != nil {
		cmdutil.Usagef("%s: %v", tool, err)
	}

	wd, err := os.Getwd()
	cmdutil.Fatal(tool, err)
	root, err := analysis.FindModuleRoot(wd)
	cmdutil.Fatal(tool, err)
	loader, err := analysis.NewLoader(root)
	cmdutil.Fatal(tool, err)
	pkgs, err := loader.LoadModule()
	cmdutil.Fatal(tool, err)

	diags := analysis.Run(pkgs, suite)

	rel := func(file string) string {
		if r, err := filepath.Rel(wd, file); err == nil && len(r) < len(file) {
			return r
		}
		return file
	}
	if *jsonOut {
		out := []jsonDiag{}
		for _, d := range diags {
			out = append(out, jsonDiag{File: rel(d.Pos.Filename), Line: d.Pos.Line, Checker: d.Checker, Message: d.Message})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			cmdutil.Fatal(tool, err)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s:%d: [%s] %s\n", rel(d.Pos.Filename), d.Pos.Line, d.Checker, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d diagnostic(s)\n", tool, len(diags))
		os.Exit(1)
	}
}
