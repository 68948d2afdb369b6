package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AsyncWait verifies the PR 7 async-I/O pairing invariant: every
// *pfs.AsyncOp issued (WriteVecAsync/ReadVAsync/ReadVecAsync, or any helper
// whose summary says it returns a fresh op) must reach Wait on every path
// of the issuing function — including error bails. An un-Waited op leaks a
// background goroutine moving bytes into buffers the caller is about to
// recycle, desynchronizes the fault injector's per-rank occurrence
// counters, and loses the op's virtual completion time from the rank clock;
// none of those fail loudly.
//
// The analysis is path-sensitive and interprocedural (it requires the
// module engine and is a no-op without it):
//
//   - An obligation starts when an AsyncOp-returning call is bound to a
//     local, or stored into a field of a local struct (pend.op = ...; custody
//     follows the root local).
//   - It is discharged by op.Wait(), by passing the handle (or a field path
//     rooted at it) to a function whose summary Waits that parameter
//     (mpiio's waitPF), by a local closure that does either (the finish()
//     pattern), or by returning the handle — ownership transfers to the
//     caller.
//   - A branch whose condition mentions the handle's root is treated as the
//     owner's nil-guard: a discharge on one arm discharges the merge (the
//     `if op != nil { op.Wait() }` shape), and an early return inside such
//     a branch is not reported.
//   - Loop bodies are analyzed twice, the second pass seeded with the
//     first's fall-through state, so a loop-carried obligation (issue in
//     round r, Wait at the round r+1 boundary) is checked against every
//     in-loop return path.
//   - A deferred Wait covers every exit — unless it sits under a recover()
//     guard (the round loops' revocation drain): that one runs only while a
//     panic unwinds and discharges nothing on the paths that return.
//
// Deliberate exceptions carry //nclint:allow=asyncwait -- <why> on the
// reported line.
func AsyncWait() *Checker {
	return &Checker{
		Name: "asyncwait",
		Doc:  "every issued pfs.AsyncOp must reach Wait on all paths (interprocedural mode only)",
		Run:  runAsyncWait,
	}
}

func runAsyncWait(pass *Pass) {
	if pass.Engine == nil {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if decl, ok := n.(*ast.FuncDecl); ok && decl.Body != nil {
				checkAsyncFunc(pass, decl, decl.Body)
			}
			// Function literals are analyzed through the enclosing
			// function's closure pre-scan: an op issued into a captured
			// variable is the enclosing function's obligation.
			return true
		})
	}
}

// issuesAsyncOp reports whether the call's static callee returns a fresh
// *pfs.AsyncOp.
func issuesAsyncOp(pass *Pass, call *ast.CallExpr) bool {
	fn := pass.Callee(call)
	return fn != nil && returnsAsyncOp(fn)
}

// asyncOpCallIn unwraps parens around an AsyncOp-returning call.
func asyncOpCallIn(pass *Pass, e ast.Expr) *ast.CallExpr {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok && issuesAsyncOp(pass, call) {
		return call
	}
	return nil
}

// awClosure is the effect of one local closure on the enclosing function's
// obligations: roots it waits, roots it issues fresh ops into.
type awClosure struct {
	waits  []types.Object
	issues []types.Object
}

type awState map[types.Object]bool

func (s awState) clone() awState {
	c := awState{}
	for k := range s {
		c[k] = true
	}
	return c
}

type awAnalysis struct {
	pass     *Pass
	fnRange  [2]token.Pos // the function's full extent; locals live inside
	deferred map[types.Object]bool
	reported map[types.Object]bool
	closures map[types.Object]*awClosure
}

func checkAsyncFunc(pass *Pass, decl *ast.FuncDecl, body *ast.BlockStmt) {
	a := &awAnalysis{
		pass:     pass,
		fnRange:  [2]token.Pos{decl.Pos(), decl.End()},
		deferred: map[types.Object]bool{},
		reported: map[types.Object]bool{},
		closures: map[types.Object]*awClosure{},
	}
	a.prescanClosures(body)
	end, terminated := a.flow(body.List, awState{}, nil)
	if !terminated {
		a.reportLive(end, body.Rbrace, "function end", nil)
	}
}

// isLocal reports whether obj is declared inside the analyzed function
// (parameters included).
func (a *awAnalysis) isLocal(obj types.Object) bool {
	return obj != nil && obj.Pos() >= a.fnRange[0] && obj.Pos() <= a.fnRange[1]
}

// prescanClosures records, for every closure bound to a local name, which
// enclosing-function roots it waits and which it issues fresh ops into.
func (a *awAnalysis) prescanClosures(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		fl, ok := as.Rhs[0].(*ast.FuncLit)
		if !ok {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		clObj := a.pass.Pkg.Info.ObjectOf(id)
		if clObj == nil {
			return true
		}
		cl := &awClosure{}
		outer := func(obj types.Object) bool {
			// Captured: declared in the enclosing function but not inside
			// the closure literal itself.
			return a.isLocal(obj) && !(obj.Pos() >= fl.Pos() && obj.Pos() <= fl.End())
		}
		ast.Inspect(fl.Body, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.CallExpr:
				for _, obj := range a.waitTargets(m) {
					if outer(obj) {
						cl.waits = append(cl.waits, obj)
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range m.Rhs {
					if i >= len(m.Lhs) || asyncOpCallIn(a.pass, rhs) == nil {
						continue
					}
					if root := argRootObj(a.pass.Pkg, m.Lhs[i]); root != nil && outer(root) {
						cl.issues = append(cl.issues, root)
					}
				}
			}
			return true
		})
		if len(cl.waits) > 0 || len(cl.issues) > 0 {
			a.closures[clObj] = cl
		}
		return true
	})
}

// waitTargets returns the roots a single call discharges: the receiver root
// of an AsyncOp Wait call, and every argument root passed into a
// WaitsParam position of the callee's summary.
func (a *awAnalysis) waitTargets(call *ast.CallExpr) []types.Object {
	var out []types.Object
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" &&
		isAsyncOpType(a.pass.TypeOf(sel.X)) {
		if obj := argRootObj(a.pass.Pkg, sel.X); obj != nil {
			out = append(out, obj)
		}
	}
	fn := a.pass.Callee(call)
	if fn == nil {
		return out
	}
	sum := a.pass.Engine.Summary(fn)
	if sum == nil || sum.WaitsParams == 0 {
		return out
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return out
	}
	for j, arg := range call.Args {
		k := paramIndexOfArg(sig, j)
		if k < 0 || !sum.WaitsParam(k) {
			continue
		}
		if obj := argRootObj(a.pass.Pkg, arg); obj != nil {
			out = append(out, obj)
		}
	}
	return out
}

// applyEffects walks the expressions of one statement (not descending into
// function literals), applying discharges (Wait calls, waiting callees,
// closure invocations) and reporting ops issued into no handle at all.
func (a *awAnalysis) applyEffects(n ast.Node, live awState) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, obj := range a.waitTargets(call) {
			delete(live, obj)
		}
		// Invoking a local closure applies its recorded effect: waits
		// first, then fresh issues.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if cl := a.closures[a.pass.Pkg.Info.ObjectOf(id)]; cl != nil {
				for _, obj := range cl.waits {
					delete(live, obj)
				}
				for _, obj := range cl.issues {
					live[obj] = true
				}
			}
		}
		// An AsyncOp-returning call in argument position: fine if the
		// receiving parameter is waited by the callee, leaked otherwise.
		fn := a.pass.Callee(call)
		var sig *types.Signature
		if fn != nil {
			sig, _ = fn.Type().(*types.Signature)
		}
		for j, arg := range call.Args {
			inner := asyncOpCallIn(a.pass, arg)
			if inner == nil {
				continue
			}
			waited := false
			if fn != nil && sig != nil {
				if sum := a.pass.Engine.Summary(fn); sum != nil {
					if k := paramIndexOfArg(sig, j); k >= 0 && sum.WaitsParam(k) {
						waited = true
					}
				}
			}
			if !waited {
				a.pass.Reportf(inner.Pos(), "AsyncOp is passed to a function that never Waits it; bind the handle and Wait it")
			}
		}
		return true
	})
}

// flow walks stmts in order with the set of live (un-Waited) obligations.
// guard holds the objects mentioned by enclosing branch conditions — the
// nil-guard shapes whose early returns are not reported.
func (a *awAnalysis) flow(stmts []ast.Stmt, live awState, guard map[types.Object]bool) (awState, bool) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.AssignStmt:
			a.applyEffects(s, live)
			a.assign(s, live)
		case *ast.DeclStmt:
			a.applyEffects(s, live)
			if gd, ok := s.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for i, val := range vs.Values {
							if i < len(vs.Names) {
								a.trackValue(vs.Names[i], val, live)
							}
						}
					}
				}
			}
		case *ast.ExprStmt:
			a.applyEffects(s, live)
			if call := asyncOpCallIn(a.pass, s.X); call != nil {
				a.pass.Reportf(call.Pos(), "AsyncOp result is discarded; bind the handle and Wait it (the issued I/O is unjoinable)")
			}
		case *ast.DeferStmt:
			a.deferStmt(s)
		case *ast.GoStmt:
			// A goroutine's Wait is not ordered before this function's
			// return; it neither discharges nor issues here.
		case *ast.ReturnStmt:
			a.applyEffects(s, live)
			for _, res := range s.Results {
				// Returning the handle (or a struct carrying it) transfers
				// ownership to the caller.
				if src := argRootObj(a.pass.Pkg, res); src != nil {
					delete(live, src)
				}
			}
			a.reportLive(live, s.Pos(), "return", guard)
			return live, true
		case *ast.IfStmt:
			if s.Init != nil {
				var term bool
				live, term = a.flow([]ast.Stmt{s.Init}, live, guard)
				if term {
					return live, true
				}
			}
			a.applyEffects(s.Cond, live)
			condObjs := identObjsIn(a.pass, s.Cond)
			branchGuard := unionGuard(guard, condObjs)
			thenState, thenTerm := a.flow(s.Body.List, live.clone(), branchGuard)
			var elseState awState
			elseTerm := false
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				elseState, elseTerm = a.flow(e.List, live.clone(), branchGuard)
			case *ast.IfStmt:
				elseState, elseTerm = a.flow([]ast.Stmt{e}, live.clone(), branchGuard)
			default:
				elseState = live.clone()
			}
			if thenTerm && elseTerm {
				return live, true
			}
			merged := awState{}
			if !thenTerm {
				for k := range thenState {
					merged[k] = true
				}
			}
			if !elseTerm {
				for k := range elseState {
					merged[k] = true
				}
			}
			// Nil-guard refinement: an obligation mentioned by the
			// condition and discharged on a surviving arm is discharged.
			for obj := range condObjs {
				if !merged[obj] {
					continue
				}
				if (!thenTerm && !thenState[obj]) || (!elseTerm && !elseState[obj]) {
					delete(merged, obj)
				}
			}
			live = merged
		case *ast.BlockStmt:
			var term bool
			live, term = a.flow(s.List, live, guard)
			if term {
				return live, true
			}
		case *ast.ForStmt:
			if s.Init != nil {
				var term bool
				live, term = a.flow([]ast.Stmt{s.Init}, live, guard)
				if term {
					return live, true
				}
			}
			live = a.loopFlow(s.Body.List, live, guard)
		case *ast.RangeStmt:
			live = a.loopFlow(s.Body.List, live, guard)
		case *ast.SwitchStmt:
			a.caseFlowAW(stmtClauses(s.Body), live, guard)
		case *ast.TypeSwitchStmt:
			a.caseFlowAW(stmtClauses(s.Body), live, guard)
		case *ast.SelectStmt:
			for _, cl := range s.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok {
					st, _ := a.flow(cc.Body, live.clone(), guard)
					for k := range st {
						live[k] = true
					}
				}
			}
		case *ast.LabeledStmt:
			var term bool
			live, term = a.flow([]ast.Stmt{s.Stmt}, live, guard)
			if term {
				return live, true
			}
		}
	}
	return live, false
}

// loopFlow analyzes a loop body twice: the first pass with the entry state
// (iteration 1), the second seeded with the first's fall-through state, so
// loop-carried obligations are checked against every in-loop return. The
// result is the union of both fall-through states.
func (a *awAnalysis) loopFlow(body []ast.Stmt, live awState, guard map[types.Object]bool) awState {
	first, _ := a.flow(body, live.clone(), guard)
	carried := live.clone()
	for k := range first {
		carried[k] = true
	}
	second, _ := a.flow(body, carried.clone(), guard)
	out := live
	for k := range first {
		out[k] = true
	}
	for k := range second {
		out[k] = true
	}
	return out
}

func (a *awAnalysis) caseFlowAW(clauses []*ast.CaseClause, live awState, guard map[types.Object]bool) {
	for _, cc := range clauses {
		st, _ := a.flow(cc.Body, live.clone(), guard)
		for k := range st {
			live[k] = true
		}
	}
}

// assign tracks obligations created by this statement's bindings.
func (a *awAnalysis) assign(s *ast.AssignStmt, live awState) {
	for i, rhs := range s.Rhs {
		if i >= len(s.Lhs) {
			break
		}
		if id, ok := s.Lhs[i].(*ast.Ident); ok {
			a.trackValue(id, rhs, live)
			continue
		}
		// pend.op = f.pf.WriteVecAsync(...): custody under the root local.
		if call := asyncOpCallIn(a.pass, rhs); call != nil {
			root := argRootObj(a.pass.Pkg, s.Lhs[i])
			if a.isLocal(root) {
				live[root] = true
				continue
			}
			a.pass.Reportf(call.Pos(), "AsyncOp is stored outside the function's locals; Wait it locally or suppress with //nclint:allow=asyncwait -- <who waits it>")
		}
	}
}

// trackValue processes `id = value` for obligation starts and moves.
func (a *awAnalysis) trackValue(id *ast.Ident, value ast.Expr, live awState) {
	if call := asyncOpCallIn(a.pass, value); call != nil {
		obj := a.pass.Pkg.Info.ObjectOf(id)
		if obj == nil {
			a.pass.Reportf(call.Pos(), "AsyncOp result is discarded; bind the handle and Wait it (the issued I/O is unjoinable)")
			return
		}
		live[obj] = true
		return
	}
	// `cur := pend` moves a struct-rooted obligation to the copy's name.
	if src, ok := ast.Unparen(value).(*ast.Ident); ok {
		obj := a.pass.Pkg.Info.ObjectOf(src)
		idObj := a.pass.Pkg.Info.ObjectOf(id)
		if obj != nil && live[obj] && obj != idObj {
			delete(live, obj)
			if idObj != nil {
				live[idObj] = true
			}
		}
	}
}

// deferStmt registers deferred discharges: defer op.Wait(), defer
// waiting-fn(op), defer closure() or a deferred literal containing either.
func (a *awAnalysis) deferStmt(s *ast.DeferStmt) {
	mark := func(call *ast.CallExpr) {
		for _, obj := range a.waitTargets(call) {
			a.deferred[obj] = true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if cl := a.closures[a.pass.Pkg.Info.ObjectOf(id)]; cl != nil {
				for _, obj := range cl.waits {
					a.deferred[obj] = true
				}
			}
		}
	}
	if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			// A Wait under `if rec := recover(); rec != nil` runs only
			// while a panic unwinds: it discharges nothing on the paths
			// that return.
			if is, ok := n.(*ast.IfStmt); ok && guardedByRecover(is) {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				mark(call)
			}
			return true
		})
		return
	}
	mark(s.Call)
}

// guardedByRecover reports whether the if statement's init or condition
// calls recover().
func guardedByRecover(is *ast.IfStmt) bool {
	found := false
	look := func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "recover" {
				found = true
			}
		}
		return !found
	}
	if is.Init != nil {
		ast.Inspect(is.Init, look)
	}
	ast.Inspect(is.Cond, look)
	return found
}

// identObjsIn collects the objects of identifiers mentioned in an
// expression (for the nil-guard refinement).
func identObjsIn(pass *Pass, e ast.Expr) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.Pkg.Info.ObjectOf(id); obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

func unionGuard(a, b map[types.Object]bool) map[types.Object]bool {
	out := map[types.Object]bool{}
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

// reportLive reports every obligation that reaches `where` un-Waited.
func (a *awAnalysis) reportLive(live awState, pos token.Pos, where string, guard map[types.Object]bool) {
	for obj := range live {
		if a.deferred[obj] || a.reported[obj] || guard[obj] {
			continue
		}
		a.reported[obj] = true
		a.pass.Reportf(pos, "AsyncOp %s reaches %s without Wait (in-flight async I/O leaked: buffers may be recycled under the background goroutine and the rank clock never sees the completion)", obj.Name(), where)
	}
}
