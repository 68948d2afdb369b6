package analysis

import (
	"go/ast"
	"go/types"
)

// Accounting guards the pfs cost-model and iostat invariants: every
// exported pfs entry point that moves bytes through the chunk store must
// also charge the virtual-time cost model (FS.charge) and record iostat
// counters, so a new fast path cannot return data "for free" and silently
// skew every simulated bandwidth number built on top (the paper's Figure
// 6/7 reproductions all flow through these charges).
//
// For each exported function or method of package pfs, the check asks the
// engine's transitive summary (closures and cross-package helpers included):
// does it reach a chunk-store access (chunkStore.writeAt/readAt/truncate)?
// If so it must also reach FS.charge AND an iostat recording call
// (File.record or Stats.Add/AddTime). Metadata-only operations that
// legitimately skip charging carry a justified //nclint:allow=accounting
// annotation on the declaration.
func Accounting() *Checker {
	return &Checker{
		Name: "accounting",
		Doc:  "pfs data paths that touch the chunk store must charge the cost model and iostat",
		Run:  runAccounting,
	}
}

func runAccounting(pass *Pass) {
	if pass.Pkg.Name != "pfs" {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil || !ast.IsExported(decl.Name.Name) {
				continue
			}
			fn, _ := pass.Pkg.Info.Defs[decl.Name].(*types.Func)
			sum := pass.Engine.Summary(fn)
			if sum == nil || !sum.Touches {
				continue
			}
			if !sum.Charges {
				pass.Reportf(decl.Name.Pos(),
					"%s touches the chunk store but never charges the cost model (FS.charge): data moved for free skews every simulated bandwidth number", fn.Name())
			}
			if !sum.Records {
				pass.Reportf(decl.Name.Pos(),
					"%s touches the chunk store but records no iostat counters (File.record / Stats.Add)", fn.Name())
			}
		}
	}
}

// isMethodOn reports whether fn is a method named one of names on the type
// pkgName.typeName.
func isMethodOn(fn *types.Func, pkgName, typeName string, names ...string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Name() != pkgName || named.Obj().Name() != typeName {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}
