package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// BufPool enforces the pooled-buffer discipline of DESIGN.md §9: every
// buffer obtained from internal/bufpool (Get/GetDirty) must reach a
// bufpool.Put on every return path of the acquiring function. Dropping a
// buffer is memory-safe (the pool reallocates) but silently reintroduces
// the steady-state allocations the pool exists to remove, which the
// alloc-regression tests then catch only for the benchmarked paths.
//
// A buffer that intentionally leaves the function — returned to the caller
// or stored into a longer-lived structure whose owner does the Put — must
// be annotated at the Get site:
//
//	//nclint:escape -- <who puts it back, and when>
//
// The analysis is a per-function, path-sensitive walk: Put calls (direct,
// deferred, or via a local closure that puts the buffer, the
// release-closure pattern) discharge the obligation on the paths they
// dominate; a return reachable with an undischarged buffer is reported.
// Passing the buffer as a call argument is treated as a borrow, not an
// escape.
func BufPool() *Checker {
	return &Checker{
		Name: "bufpool",
		Doc:  "bufpool.Get must reach bufpool.Put on all return paths (or carry //nclint:escape)",
		Run:  runBufPool,
	}
}

func runBufPool(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		file := f
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkBufFunc(pass, file, n.Body)
				}
			case *ast.FuncLit:
				checkBufFunc(pass, file, n.Body)
			}
			return true
		})
	}
}

// isBufpoolCall reports whether call invokes bufpool.<name> for one of the
// given names.
func isBufpoolCall(pass *Pass, call *ast.CallExpr, names ...string) bool {
	fn := pass.Callee(call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "bufpool" {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// getCallIn unwraps parens and slice expressions around a bufpool
// Get/GetDirty call: `bufpool.GetDirty(n)[:0]` still yields the call.
func getCallIn(pass *Pass, e ast.Expr) *ast.CallExpr {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.CallExpr:
			if isBufpoolCall(pass, v, "Get", "GetDirty") {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

// pooledCallIn returns the call in e that yields a pooled buffer: a direct
// bufpool Get/GetDirty, or (interprocedural mode) a helper whose summary
// says it returns one.
func pooledCallIn(pass *Pass, e ast.Expr) *ast.CallExpr {
	if call := getCallIn(pass, e); call != nil {
		return call
	}
	if pass.Engine == nil {
		return nil
	}
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil
	}
	fn := pass.Callee(call)
	if fn == nil {
		return nil
	}
	if sum := pass.Engine.Summary(fn); sum != nil && sum.ReturnsPooled {
		return call
	}
	return nil
}

// putArgObj resolves the object a bufpool.Put call discharges, or nil.
func putArgObj(pass *Pass, call *ast.CallExpr) types.Object {
	if len(call.Args) != 1 {
		return nil
	}
	arg := ast.Unparen(call.Args[0])
	if sl, ok := arg.(*ast.SliceExpr); ok {
		arg = ast.Unparen(sl.X)
	}
	id, ok := arg.(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.Pkg.Info.ObjectOf(id)
}

// hasEscapeAnnotation reports whether the Get site carries a justified
// //nclint:escape annotation; it also reports an unjustified one.
func hasEscapeAnnotation(pass *Pass, file *ast.File, pos token.Pos) bool {
	for _, c := range lineComments(pass.Fset, file, pos) {
		if idx := strings.Index(c, "//nclint:escape"); idx >= 0 {
			rest := c[idx+len("//nclint:escape"):]
			if j := strings.Index(rest, "--"); j >= 0 && strings.TrimSpace(rest[j+2:]) != "" {
				return true
			}
			pass.Reportf(pos, "//nclint:escape needs a justification: //nclint:escape -- <who puts the buffer back>")
			return true // annotated intent is clear; don't double-report
		}
	}
	return false
}

// bufState is the set of live (not yet Put) buffers along one path.
type bufState map[types.Object]bool

func (s bufState) clone() bufState {
	c := bufState{}
	for k := range s {
		c[k] = true
	}
	return c
}

type bufAnalysis struct {
	pass        *Pass
	file        *ast.File
	bodyPos     token.Pos                       // objects declared before this are parameters
	deferred    map[types.Object]bool           // discharged at every return
	closureObjs map[types.Object][]types.Object // release-closure var -> buffers it puts
	reported    map[types.Object]bool
}

func checkBufFunc(pass *Pass, file *ast.File, body *ast.BlockStmt) {
	a := &bufAnalysis{
		pass:        pass,
		file:        file,
		bodyPos:     body.Pos(),
		deferred:    map[types.Object]bool{},
		closureObjs: map[types.Object][]types.Object{},
		reported:    map[types.Object]bool{},
	}
	// Pre-scan: local closures that put buffers (the release() pattern) —
	// directly, or in interprocedural mode through a callee that Puts its
	// parameter (the finish()/recycleRound pattern of the pipelined path).
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
		obj := pass.Pkg.Info.ObjectOf(id)
		if obj == nil {
			return true
		}
		ast.Inspect(fl.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isBufpoolCall(pass, call, "Put", "PutAll") {
				if put := putArgObj(pass, call); put != nil {
					a.closureObjs[obj] = append(a.closureObjs[obj], put)
				}
				return true
			}
			for _, put := range putParamRoots(pass, call) {
				a.closureObjs[obj] = append(a.closureObjs[obj], put)
			}
			return true
		})
		return true
	})
	end, terminated := a.flow(body.List, bufState{})
	if !terminated {
		a.reportLive(end, body.Rbrace, "function end")
	}
}

// flow walks stmts in order, returning the fall-through state and whether
// every path through stmts terminated (returned) before falling through.
func (a *bufAnalysis) flow(stmts []ast.Stmt, live bufState) (bufState, bool) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.AssignStmt:
			a.applyCalls(s, live)
			a.assign(s, live)
		case *ast.DeclStmt:
			a.applyCalls(s, live)
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
			a.applyCalls(s, live)
			a.exprStmt(s.X, live)
		case *ast.DeferStmt:
			a.deferStmt(s, live)
		case *ast.ReturnStmt:
			a.applyCalls(s, live)
			a.returnStmt(s, live)
			return live, true
		case *ast.IfStmt:
			if s.Init != nil {
				var term bool
				live, term = a.flow([]ast.Stmt{s.Init}, live)
				if term {
					return live, true
				}
			}
			a.applyCalls(s.Cond, live)
			thenState, thenTerm := a.flow(s.Body.List, live.clone())
			var elseState bufState
			elseTerm := false
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				elseState, elseTerm = a.flow(e.List, live.clone())
			case *ast.IfStmt:
				elseState, elseTerm = a.flow([]ast.Stmt{e}, live.clone())
			default:
				elseState = live.clone()
			}
			if thenTerm && elseTerm {
				return live, true
			}
			merged := bufState{}
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
			live = merged
		case *ast.BlockStmt:
			var term bool
			live, term = a.flow(s.List, live)
			if term {
				return live, true
			}
		case *ast.ForStmt:
			if s.Init != nil {
				var term bool
				live, term = a.flow([]ast.Stmt{s.Init}, live)
				if term {
					return live, true
				}
			}
			bodyState, _ := a.flow(s.Body.List, live.clone())
			for k := range bodyState {
				live[k] = true
			}
		case *ast.RangeStmt:
			bodyState, _ := a.flow(s.Body.List, live.clone())
			for k := range bodyState {
				live[k] = true
			}
		case *ast.SwitchStmt:
			a.caseFlow(stmtClauses(s.Body), live)
		case *ast.TypeSwitchStmt:
			a.caseFlow(stmtClauses(s.Body), live)
		case *ast.SelectStmt:
			for _, cl := range s.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok {
					st, _ := a.flow(cc.Body, live.clone())
					for k := range st {
						live[k] = true
					}
				}
			}
		case *ast.LabeledStmt:
			var term bool
			live, term = a.flow([]ast.Stmt{s.Stmt}, live)
			if term {
				return live, true
			}
		}
	}
	return live, false
}

func stmtClauses(body *ast.BlockStmt) []*ast.CaseClause {
	var out []*ast.CaseClause
	for _, cl := range body.List {
		if cc, ok := cl.(*ast.CaseClause); ok {
			out = append(out, cc)
		}
	}
	return out
}

func (a *bufAnalysis) caseFlow(clauses []*ast.CaseClause, live bufState) {
	for _, cc := range clauses {
		st, _ := a.flow(cc.Body, live.clone())
		for k := range st {
			live[k] = true
		}
	}
}

// assign handles x := bufpool.Get(...), reassignments, and escapes by
// storage: a tracked buffer assigned to anything but itself leaves the
// function's custody.
func (a *bufAnalysis) assign(s *ast.AssignStmt, live bufState) {
	for i, rhs := range s.Rhs {
		if i >= len(s.Lhs) {
			break
		}
		if id, ok := s.Lhs[i].(*ast.Ident); ok {
			a.trackValue(id, rhs, live)
			continue
		}
		// Storing into an element of a local [][]byte re-homes custody
		// under the slice — the round-table pattern of the two-phase
		// collective path: buffers are parked in a by-rank slice while the
		// round's request references them, and the whole table is
		// discharged at once by bufpool.PutAll(table) once that request
		// returns. Dropping the table is still reported, under the slice's
		// name.
		if gen := localSliceObj(a.pass, s.Lhs[i]); gen != nil {
			// Storing into a caller-supplied [][]byte parameter transfers
			// custody out of this function: in interprocedural mode the
			// StoresPooledParam summary re-homes the obligation at every
			// call site, so it is discharged here rather than re-tracked.
			transfer := a.pass.Engine != nil && gen.Pos() < a.bodyPos
			if call := pooledCallIn(a.pass, rhs); call != nil {
				if !transfer {
					live[gen] = true
				}
				continue
			}
			if src := identIn(rhs); src != nil {
				if obj := a.pass.Pkg.Info.ObjectOf(src); obj != nil && live[obj] {
					delete(live, obj)
					if !transfer {
						live[gen] = true
					}
				}
			}
			continue
		}
		// Storing into a field, map, or non-local slice element: if the
		// stored value is (derived from) a live buffer, it escapes.
		a.escapeIfLive(rhs, live, "stored outside the function's locals")
		if call := getCallIn(a.pass, rhs); call != nil {
			a.requireEscape(call, "stored without being bound to a local")
		}
	}
}

// localSliceObj resolves lhs of the form slice[expr] where slice is a
// local or parameter of type [][]byte, returning the slice's object.
func localSliceObj(pass *Pass, lhs ast.Expr) types.Object {
	ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return nil
	}
	id, ok := ast.Unparen(ix.X).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.Pkg.Info.ObjectOf(id)
	if obj == nil {
		return nil
	}
	if _, ok := obj.(*types.Var); !ok {
		return nil
	}
	sl, ok := obj.Type().Underlying().(*types.Slice)
	if !ok {
		return nil
	}
	el, ok := sl.Elem().Underlying().(*types.Slice)
	if !ok {
		return nil
	}
	b, ok := el.Elem().Underlying().(*types.Basic)
	if !ok || b.Kind() != types.Byte {
		return nil
	}
	return obj
}

// trackValue processes `id = value`: a Get call starts tracking (unless
// annotated as escaping); rebinding a live buffer to another name is an
// escape of the old value only if id differs from the value's source. In
// interprocedural mode a call to a helper whose summary returns a pooled
// buffer starts the same obligation: the custody the helper's own escape
// annotation promised to its caller lands here.
func (a *bufAnalysis) trackValue(id *ast.Ident, value ast.Expr, live bufState) {
	if call := getCallIn(a.pass, value); call != nil {
		if hasEscapeAnnotation(a.pass, a.file, call.Pos()) {
			return
		}
		if obj := a.pass.Pkg.Info.ObjectOf(id); obj != nil {
			live[obj] = true
		}
		return
	}
	if a.pass.Engine != nil {
		if call, ok := ast.Unparen(value).(*ast.CallExpr); ok {
			if fn := a.pass.Callee(call); fn != nil {
				if sum := a.pass.Engine.Summary(fn); sum != nil && sum.ReturnsPooled {
					if hasEscapeAnnotation(a.pass, a.file, call.Pos()) {
						return
					}
					if obj := a.pass.Pkg.Info.ObjectOf(id); obj != nil {
						live[obj] = true
					}
					return
				}
			}
		}
	}
	// Nested Get (argument position, composite literal...) must be
	// annotated: nobody holds a name to Put it through.
	ast.Inspect(value, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isBufpoolCall(a.pass, call, "Get", "GetDirty") {
			a.requireEscape(call, "not bound directly to a local")
		}
		return true
	})
	// `y := x` hands the buffer to a second name; treat as escape unless
	// the source ident is being sliced/appended back to itself.
	if src := identIn(value); src != nil {
		obj := a.pass.Pkg.Info.ObjectOf(src)
		idObj := a.pass.Pkg.Info.ObjectOf(id)
		if obj != nil && live[obj] && obj != idObj {
			delete(live, obj)
			if idObj != nil {
				live[idObj] = true // track under the new name instead
			}
		}
	}
}

// identIn returns the ident a value expression is directly derived from
// (unwrapping parens, slicing, and append(x, ...)).
func identIn(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.CallExpr:
			if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok && id.Name == "append" && len(v.Args) > 0 {
				e = v.Args[0]
				continue
			}
			return nil
		case *ast.Ident:
			return v
		default:
			return nil
		}
	}
}

// exprStmt handles Put calls and release-closure invocations.
func (a *bufAnalysis) exprStmt(e ast.Expr, live bufState) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	if isBufpoolCall(a.pass, call, "Put", "PutAll") {
		if obj := putArgObj(a.pass, call); obj != nil {
			delete(live, obj)
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj := a.pass.Pkg.Info.ObjectOf(id); obj != nil {
			for _, put := range a.closureObjs[obj] {
				delete(live, put)
			}
		}
	}
	// Any nested unbound Get (e.g. passed straight as an argument).
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok && isBufpoolCall(a.pass, c, "Get", "GetDirty") {
				a.requireEscape(c, "passed as an argument without a local name")
			}
			return true
		})
	}
}

// deferStmt registers deferred Puts: direct, via closure literal, or via a
// release closure variable.
func (a *bufAnalysis) deferStmt(s *ast.DeferStmt, live bufState) {
	if isBufpoolCall(a.pass, s.Call, "Put", "PutAll") {
		if obj := putArgObj(a.pass, s.Call); obj != nil {
			a.deferred[obj] = true
		}
		return
	}
	if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isBufpoolCall(a.pass, call, "Put", "PutAll") {
				if obj := putArgObj(a.pass, call); obj != nil {
					a.deferred[obj] = true
				}
			}
			return true
		})
		return
	}
	if id, ok := ast.Unparen(s.Call.Fun).(*ast.Ident); ok {
		if obj := a.pass.Pkg.Info.ObjectOf(id); obj != nil {
			for _, put := range a.closureObjs[obj] {
				a.deferred[put] = true
			}
		}
	}
}

// returnStmt reports buffers still live at an explicit return; a returned
// buffer itself is an escape and must be annotated at its Get site.
func (a *bufAnalysis) returnStmt(s *ast.ReturnStmt, live bufState) {
	for _, res := range s.Results {
		if call := getCallIn(a.pass, res); call != nil {
			a.requireEscape(call, "returned to the caller")
			continue
		}
		if src := identIn(res); src != nil {
			if obj := a.pass.Pkg.Info.ObjectOf(src); obj != nil && live[obj] {
				delete(live, obj)
				// In interprocedural mode the return is an ownership
				// transfer: this function's summary becomes ReturnsPooled
				// and every caller inherits the obligation, so the checker
				// follows the buffer instead of demanding an annotation.
				if a.pass.Engine == nil && !a.reported[obj] {
					a.reported[obj] = true
					a.pass.Reportf(s.Pos(), "bufpool buffer %s is returned to the caller; annotate its Get with //nclint:escape -- <who puts it back>", src.Name)
				}
			}
		}
	}
	a.reportLive(live, s.Pos(), "return")
}

// escapeIfLive marks a live buffer stored outside the locals as escaped and
// reports it.
func (a *bufAnalysis) escapeIfLive(e ast.Expr, live bufState, how string) {
	src := identIn(e)
	if src == nil {
		return
	}
	obj := a.pass.Pkg.Info.ObjectOf(src)
	if obj == nil || !live[obj] {
		return
	}
	delete(live, obj)
	if !a.reported[obj] {
		a.reported[obj] = true
		a.pass.Reportf(e.Pos(), "bufpool buffer %s is %s; annotate its Get with //nclint:escape -- <who puts it back>", src.Name, how)
	}
}

// requireEscape reports a Get whose result has no local name unless the
// site carries a justified //nclint:escape annotation.
func (a *bufAnalysis) requireEscape(call *ast.CallExpr, how string) {
	if hasEscapeAnnotation(a.pass, a.file, call.Pos()) {
		return
	}
	a.pass.Reportf(call.Pos(), "bufpool.Get result is %s; annotate with //nclint:escape -- <who puts it back> or bind it to a local and Put it", how)
}

// applyCalls walks the expressions of one statement (not descending into
// function literals) and applies every call's custody effects: direct
// bufpool.Put/PutAll, release-closure invocations, and — in
// interprocedural mode — callee summaries that Put a parameter (discharge
// the argument's root) or store pooled buffers into a parameter (custody
// re-homed under the argument's root local, the packWriteRound pattern).
func (a *bufAnalysis) applyCalls(n ast.Node, live bufState) {
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
		if isBufpoolCall(a.pass, call, "Put", "PutAll") {
			if obj := putArgObj(a.pass, call); obj != nil {
				delete(live, obj)
			}
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if obj := a.pass.Pkg.Info.ObjectOf(id); obj != nil {
				for _, put := range a.closureObjs[obj] {
					delete(live, put)
				}
			}
		}
		for _, put := range putParamRoots(a.pass, call) {
			delete(live, put)
		}
		for _, stored := range storesPooledRoots(a.pass, call) {
			// A callee filling this function's own [][]byte parameter is
			// the same transfer as a direct element store into it (see
			// assign): the summary engine propagates StoresPooledParam to
			// this function, so the obligation lands at its call sites.
			if stored.Pos() < a.bodyPos {
				continue
			}
			live[stored] = true
		}
		return true
	})
}

// putParamRoots returns the local roots of arguments passed into positions
// the callee's summary Puts (interprocedural mode only).
func putParamRoots(pass *Pass, call *ast.CallExpr) []types.Object {
	return summaryParamRoots(pass, call, func(sum *Summary, k int) bool { return sum.PutsParam(k) })
}

// storesPooledRoots returns the local roots of arguments the callee's
// summary stores pooled buffers into (interprocedural mode only).
func storesPooledRoots(pass *Pass, call *ast.CallExpr) []types.Object {
	return summaryParamRoots(pass, call, func(sum *Summary, k int) bool { return sum.StoresPooledParam(k) })
}

func summaryParamRoots(pass *Pass, call *ast.CallExpr, want func(*Summary, int) bool) []types.Object {
	if pass.Engine == nil {
		return nil
	}
	fn := pass.Callee(call)
	if fn == nil {
		return nil
	}
	sum := pass.Engine.Summary(fn)
	if sum == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out []types.Object
	for j, arg := range call.Args {
		k := paramIndexOfArg(sig, j)
		if k < 0 || !want(sum, k) {
			continue
		}
		root := argRootObj(pass.Pkg, arg)
		v, ok := root.(*types.Var)
		if !ok || v.IsField() {
			continue
		}
		// Only function-scoped roots: custody of a package-level or
		// otherwise foreign root is someone else's to track.
		if v.Parent() == nil || v.Parent() == pass.Pkg.Types.Scope() {
			continue
		}
		out = append(out, root)
	}
	return out
}

// reportLive reports every buffer that reaches `where` without a Put.
func (a *bufAnalysis) reportLive(live bufState, pos token.Pos, where string) {
	for obj := range live {
		if a.deferred[obj] || a.reported[obj] {
			continue
		}
		a.reported[obj] = true
		a.pass.Reportf(pos, "bufpool buffer %s reaches %s without bufpool.Put (pooled buffer dropped on this path)", obj.Name(), where)
	}
}
