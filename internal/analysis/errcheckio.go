package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrCheckIO enforces the PR 2 teardown-error discipline: Close, Sync,
// Flush and Write* return the errors that matter most for a storage
// library (a buffered writer or journaled header commit often only fails
// at the flush), and the repo's convention is to fold them in with
// errors.Join or at least look at them. The checker flags any call to an
// error-returning function named Close/Sync/Flush/Write* whose result is
// silently discarded — as a bare expression statement, a defer, or a go
// statement — in non-test code. An explicit `_ =` assignment is a visible,
// reviewable discard and is allowed.
func ErrCheckIO() *Checker {
	return &Checker{
		Name: "errcheckio",
		Doc:  "Close/Sync/Flush/Write* errors must not be silently discarded",
		Run:  runErrCheckIO,
	}
}

func runErrCheckIO(pass *Pass) {
	check := func(call *ast.CallExpr, how string) {
		fn := pass.Callee(call)
		if fn == nil || !isIOErrorName(fn.Name()) || !returnsError(fn) {
			return
		}
		if neverFails(fn) {
			return
		}
		pass.Reportf(call.Pos(), "%s from %s is discarded; handle it or assign to _ explicitly (errors.Join on teardown paths)",
			fn.Name()+"'s error", how)
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
					check(call, "a bare call")
				}
			case *ast.DeferStmt:
				check(n.Call, "a deferred call")
			case *ast.GoStmt:
				check(n.Call, "a go statement")
			}
			return true
		})
	}
}

// isIOErrorName matches the error-returning teardown/flush calls the checker
// audits.
func isIOErrorName(name string) bool {
	return name == "Close" || name == "Sync" || name == "Flush" || strings.HasPrefix(name, "Write")
}

// neverFails exempts the in-memory writers whose Write*/error results are
// documented to always be nil (bytes.Buffer, strings.Builder): flagging them
// would train people to sprinkle meaningless checks.
func neverFails(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	key := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	return key == "bytes.Buffer" || key == "strings.Builder"
}

// returnsError reports whether fn's last result is the error type.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
