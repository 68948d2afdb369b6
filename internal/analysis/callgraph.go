package analysis

// Module-wide interprocedural engine (DESIGN.md §14). The per-package
// checkers stop at function boundaries: extract a collective, a bufpool.Put
// or a lock acquisition into a helper — possibly in another package — and
// the intraprocedural suite is silently blind. The engine closes that hole
// with two pieces:
//
//  1. A static call graph over *types.Func nodes spanning every package of
//     the module (and every package of a fixture tree). Edges come from
//     direct calls and method calls; a call through an interface method,
//     which has no single static callee, falls back to class-hierarchy
//     analysis: one edge to every module type that implements the
//     interface, marked Interface.
//
//  2. Per-function summaries computed to a fixed point over the graph
//     (recursion and cross-package cycles converge because every fact is a
//     monotone set/bitmask):
//
//     - Collectives: display names of collective operations the function
//       may invoke, transitively (collsym).
//     - ReturnsPooled / StoresPooledParams: the function hands its caller a
//       live bufpool buffer — as a []byte/[][]byte result, or by storing
//       one into a caller-owned slice/field passed as a parameter (bufpool).
//     - PutsParams: parameters that may reach bufpool.Put/PutAll, or leave
//       the rank through Comm.Send (bufpool: passing a live buffer to such
//       a helper discharges it). Comm.Recv is the other end of that
//       transfer: it ReturnsPooled, so custody lands on the receiver.
//     - MayAcquire / Releases: the pfs lock classes the function may
//       acquire or release (lockorder: calling a helper that grabs a
//       lower-ranked class while holding a higher-ranked one is the same
//       inversion as inlining it).
//     - Touches / Charges / Records: chunk-store access, cost-model
//       charging and iostat recording, transitively (accounting).
//
// Known limits, by construction: calls through stored function values get
// no edges (local closures are handled separately by the path-sensitive
// checkers' pre-scans); collective and lock facts exclude function-literal
// bodies, whose execution context the enclosing function does not
// determine; reflection and unsafe are invisible. The suppression syntax is
// unchanged — //nclint:allow=<checker> -- <why> at the report site.

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// CallEdge is one resolved call site inside a function.
type CallEdge struct {
	Call      *ast.CallExpr
	Callee    *types.Func
	Interface bool // resolved via the implements-fallback, not statically
	InClosure bool // the call site sits inside a function literal
}

// FuncNode is one module function in the call graph.
type FuncNode struct {
	Fn    *types.Func
	Decl  *ast.FuncDecl
	Pkg   *Package
	Edges []CallEdge
	Sum   Summary
}

// Summary is the interprocedural fact set of one function. Zero value =
// "does nothing interesting", the lattice bottom.
type Summary struct {
	// Collectives holds the display names of collective operations this
	// function may invoke, directly or transitively (sorted, unique).
	Collectives []string

	// ReturnsPooled: some []byte / [][]byte result may be (or contain) a
	// live bufpool buffer the caller is responsible for.
	ReturnsPooled bool
	// StoresPooledParams: bitmask of parameters into whose elements/fields
	// the function may store a live bufpool buffer.
	StoresPooledParams uint64
	// PutsParams: bitmask of parameters that may reach bufpool.Put/PutAll
	// or be given to another rank with Comm.Send.
	PutsParams uint64

	// MayAcquire / Releases: bitmasks over the pfs lock classes (bit c set
	// = class c), excluding function-literal bodies.
	MayAcquire uint8
	Releases   uint8

	// Accounting facts (transitive, closures included, matching the
	// intraprocedural accounting checker's view).
	Touches bool // chunk-store access
	Charges bool // FS.charge
	Records bool // iostat recording
}

// HasCollectives reports whether the function may invoke any collective.
func (s *Summary) HasCollectives() bool { return len(s.Collectives) > 0 }

// PutsParam reports whether parameter i may reach bufpool.Put.
func (s *Summary) PutsParam(i int) bool { return i < 64 && s.PutsParams&(1<<uint(i)) != 0 }

// StoresPooledParam reports whether the function may store a pooled buffer
// into parameter i.
func (s *Summary) StoresPooledParam(i int) bool {
	return i < 64 && s.StoresPooledParams&(1<<uint(i)) != 0
}

// Engine is the module-wide call graph plus computed summaries.
type Engine struct {
	pkgs  []*Package
	nodes map[*types.Func]*FuncNode
}

// NewEngine builds the call graph over pkgs and computes every function's
// summary to a fixed point.
func NewEngine(pkgs []*Package) *Engine {
	e := &Engine{pkgs: pkgs, nodes: map[*types.Func]*FuncNode{}}
	e.buildNodes()
	e.buildEdges()
	e.computeSummaries()
	return e
}

// Node returns the call-graph node of fn, or nil for functions outside the
// analyzed packages (stdlib, unexported interface methods...).
func (e *Engine) Node(fn *types.Func) *FuncNode {
	if fn == nil {
		return nil
	}
	return e.nodes[fn]
}

// recvSummary is the one summary the engine is told instead of computing:
// Comm.Recv is the receiving end of Comm.Send's ownership transfer
// (internal/mpi, "Buffer ownership"), so what it returns is the receiver's
// to put — a fact its body, a mailbox dequeue, cannot show.
var recvSummary = Summary{ReturnsPooled: true}

// Summary returns fn's summary, or nil for functions outside the module.
func (e *Engine) Summary(fn *types.Func) *Summary {
	if isMethodOn(fn, "mpi", "Comm", "Recv") {
		return &recvSummary
	}
	if nd := e.Node(fn); nd != nil {
		return &nd.Sum
	}
	return nil
}

// Funcs returns every function node, sorted by position (deterministic).
func (e *Engine) Funcs() []*FuncNode {
	out := make([]*FuncNode, 0, len(e.nodes))
	for _, nd := range e.nodes {
		out = append(out, nd)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fn.Pos() < out[j].Fn.Pos() })
	return out
}

// Lookup resolves "Func" or "Type.Method" in the package with the given
// import path; test helper.
func (e *Engine) Lookup(pkgPath, name string) *types.Func {
	for fn, nd := range e.nodes {
		if nd.Pkg.Path != pkgPath {
			continue
		}
		if funcDisplayName(fn) == name {
			return fn
		}
	}
	return nil
}

// funcDisplayName renders fn as Func or Type.Method.
func funcDisplayName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

func (e *Engine) buildNodes() {
	for _, pkg := range e.pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[decl.Name].(*types.Func)
				if fn == nil {
					continue
				}
				e.nodes[fn] = &FuncNode{Fn: fn, Decl: decl, Pkg: pkg}
			}
		}
	}
}

// calleeOf resolves a call to its static *types.Func using pkg's type info
// (same rules as Pass.Callee).
func calleeOf(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// buildEdges records every resolvable call site. Calls whose static callee
// is an interface method fan out to each module type implementing the
// interface (class-hierarchy fallback).
func (e *Engine) buildEdges() {
	concrete := e.namedTypes()
	for _, nd := range e.nodes {
		pkg := nd.Pkg
		var walk func(n ast.Node, inClosure bool)
		walk = func(n ast.Node, inClosure bool) {
			ast.Inspect(n, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.FuncLit:
					walk(m.Body, true)
					return false
				case *ast.CallExpr:
					fn := calleeOf(pkg, m)
					if fn == nil {
						return true
					}
					if iface := interfaceRecv(fn); iface != nil {
						for _, impl := range implementors(concrete, iface, fn.Name()) {
							nd.Edges = append(nd.Edges, CallEdge{
								Call: m, Callee: impl, Interface: true, InClosure: inClosure,
							})
						}
						return true
					}
					nd.Edges = append(nd.Edges, CallEdge{Call: m, Callee: fn, InClosure: inClosure})
				}
				return true
			})
		}
		walk(nd.Decl.Body, false)
	}
}

// interfaceRecv returns fn's receiver interface type, or nil for concrete
// methods and plain functions.
func interfaceRecv(fn *types.Func) *types.Interface {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	return iface
}

// namedTypes collects every named (non-interface) type declared in the
// analyzed packages.
func (e *Engine) namedTypes() []*types.Named {
	var out []*types.Named
	for _, pkg := range e.pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			out = append(out, named)
		}
	}
	return out
}

// implementors returns the concrete methods named name on module types
// whose value or pointer type implements iface.
func implementors(concrete []*types.Named, iface *types.Interface, name string) []*types.Func {
	var out []*types.Func
	for _, named := range concrete {
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), name)
		if m, ok := obj.(*types.Func); ok {
			out = append(out, m)
		}
	}
	return out
}

// paramIndexOfArg maps call argument index j to the callee's parameter
// index (collapsing variadic tails).
func paramIndexOfArg(sig *types.Signature, j int) int {
	n := sig.Params().Len()
	if n == 0 {
		return -1
	}
	if sig.Variadic() && j >= n-1 {
		return n - 1
	}
	if j >= n {
		return -1
	}
	return j
}

// paramIndex returns the index of obj among fn's declared parameters, or -1.
func paramIndex(fn *types.Func, obj types.Object) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == obj {
			return i
		}
	}
	return -1
}

// isByteSliceLike reports whether t is []byte or [][]byte — the only result
// shapes the pooled-buffer summary tracks.
func isByteSliceLike(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	if b, ok := sl.Elem().Underlying().(*types.Basic); ok {
		return b.Kind() == types.Byte
	}
	inner, ok := sl.Elem().Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := inner.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// computeSummaries iterates the per-function transfer until no summary
// changes. All facts are monotone, so this terminates.
func (e *Engine) computeSummaries() {
	funcs := e.Funcs()
	for changed := true; changed; {
		changed = false
		for _, nd := range funcs {
			if e.updateSummary(nd) {
				changed = true
			}
		}
	}
}

// updateSummary recomputes nd's summary from its body and current callee
// summaries, reporting whether it grew.
func (e *Engine) updateSummary(nd *FuncNode) bool {
	old := nd.Sum
	pass := &Pass{Fset: nd.Pkg.Fset, Pkg: nd.Pkg}
	sum := &nd.Sum

	// Edge-propagated facts.
	collectives := map[string]bool{}
	for _, c := range sum.Collectives {
		collectives[c] = true
	}
	for _, edge := range nd.Edges {
		if name, ok := collectiveFuncName(edge.Callee); ok && !edge.InClosure {
			collectives[name] = true
		}
		callee := e.nodes[edge.Callee]
		if callee == nil {
			continue
		}
		cs := &callee.Sum
		if !edge.InClosure {
			for _, c := range cs.Collectives {
				collectives[c] = true
			}
			sum.MayAcquire |= cs.MayAcquire
			sum.Releases |= cs.Releases
		}
		// Accounting facts follow every edge, closures included: the
		// closure that moves the bytes still belongs to the issuing
		// function's data path.
		sum.Touches = sum.Touches || cs.Touches
		sum.Charges = sum.Charges || cs.Charges
		sum.Records = sum.Records || cs.Records
		// Parameter-passing propagation: handing parameter i to a callee
		// position that puts it extends the fact to this function.
		sig, ok := edge.Callee.Type().(*types.Signature)
		if !ok {
			continue
		}
		for j, arg := range edge.Call.Args {
			obj := argRootObj(nd.Pkg, arg)
			if obj == nil {
				continue
			}
			i := paramIndex(nd.Fn, obj)
			if i < 0 {
				continue
			}
			k := paramIndexOfArg(sig, j)
			if k < 0 {
				continue
			}
			if cs.PutsParam(k) {
				sum.PutsParams |= 1 << uint(i)
			}
			if cs.StoresPooledParam(k) {
				sum.StoresPooledParams |= 1 << uint(i)
			}
		}
	}

	// Direct facts from the body.
	e.scanDirect(nd, pass)
	e.scanPooled(nd, pass)

	for _, c := range sum.Collectives {
		collectives[c] = true
	}
	names := make([]string, 0, len(collectives))
	for c := range collectives {
		names = append(names, c)
	}
	sort.Strings(names)
	sum.Collectives = names

	return !summariesEqual(&old, sum)
}

func summariesEqual(a, b *Summary) bool {
	if a.ReturnsPooled != b.ReturnsPooled || a.StoresPooledParams != b.StoresPooledParams ||
		a.PutsParams != b.PutsParams || a.MayAcquire != b.MayAcquire ||
		a.Releases != b.Releases || a.Touches != b.Touches || a.Charges != b.Charges ||
		a.Records != b.Records || len(a.Collectives) != len(b.Collectives) {
		return false
	}
	for i := range a.Collectives {
		if a.Collectives[i] != b.Collectives[i] {
			return false
		}
	}
	return true
}

// argRootObj unwraps an argument expression (parens, slicing, indexing,
// field selection, append) to the object of its base identifier.
func argRootObj(pkg *Package, e ast.Expr) types.Object {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.SelectorExpr:
			e = v.X
		case *ast.CallExpr:
			if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok && id.Name == "append" && len(v.Args) > 0 {
				e = v.Args[0]
				continue
			}
			return nil
		case *ast.Ident:
			return pkg.Info.ObjectOf(v)
		default:
			return nil
		}
	}
}

// scanDirect collects the direct (non-propagated) facts: lock classes, Put
// on parameters, accounting touches.
func (e *Engine) scanDirect(nd *FuncNode, pass *Pass) {
	sum := &nd.Sum
	// putsRoot records that the buffer rooted at obj leaves this function's
	// custody, when obj is one of its parameters.
	putsRoot := func(obj types.Object) {
		if obj == nil {
			return
		}
		if i := paramIndex(nd.Fn, obj); i >= 0 {
			sum.PutsParams |= 1 << uint(i)
		}
	}
	var walk func(n ast.Node, inClosure bool)
	walk = func(n ast.Node, inClosure bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			fl, ok := m.(*ast.FuncLit)
			if ok {
				walk(fl.Body, true)
				return false
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if cls := lockClass(pass, call); cls != 0 && !inClosure {
				if _, isLock, _, ok := isMutexLockCall(pass, call); ok {
					if isLock {
						sum.MayAcquire |= 1 << uint(cls)
					} else {
						sum.Releases |= 1 << uint(cls)
					}
				}
			}
			if isBufpoolCall(pass, call, "Put", "PutAll") {
				putsRoot(putArgObj(pass, call))
			}
			callee := calleeOf(nd.Pkg, call)
			if callee == nil {
				return true
			}
			switch {
			case isMethodOn(callee, "mpi", "Comm", "Send"):
				// A send moves the buffer, not a copy (internal/mpi, "Buffer
				// ownership"): the sender's custody ends here as at a Put,
				// and the receiver's begins at Recv (recvSummary).
				putsRoot(argRootObj(nd.Pkg, call.Args[len(call.Args)-1]))
			case isMethodOn(callee, "pfs", "chunkStore", "writeAt", "readAt", "truncate"):
				sum.Touches = true
			case isMethodOn(callee, "pfs", "FS", "charge"):
				sum.Charges = true
			case isMethodOn(callee, "pfs", "File", "record"):
				sum.Records = true
			case callee.Pkg() != nil && callee.Pkg().Name() == "iostat" &&
				(callee.Name() == "Add" || callee.Name() == "AddTime"):
				sum.Records = true
			}
			return true
		})
	}
	walk(nd.Decl.Body, false)
}

// scanPooled runs a small local dataflow over nd's body: which locals may
// hold live bufpool buffers, and do any of them leave through a result or a
// parameter. Closure bodies are included — a buffer stored into a captured
// slice still leaves through it.
func (e *Engine) scanPooled(nd *FuncNode, pass *Pass) {
	sum := &nd.Sum
	pooled := map[types.Object]bool{}

	// isPooledExpr: does the expression yield (or contain) a live pooled
	// buffer, under the current pooled-locals set?
	var isPooledExpr func(x ast.Expr) bool
	isPooledExpr = func(x ast.Expr) bool {
		switch v := ast.Unparen(x).(type) {
		case *ast.SliceExpr:
			return isPooledExpr(v.X)
		case *ast.IndexExpr:
			return isPooledExpr(v.X)
		case *ast.CallExpr:
			if isBufpoolCall(pass, v, "Get", "GetDirty") {
				return true
			}
			if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok && id.Name == "append" && len(v.Args) > 0 {
				return isPooledExpr(v.Args[0])
			}
			if callee := calleeOf(nd.Pkg, v); callee != nil {
				if cs := e.Summary(callee); cs != nil && cs.ReturnsPooled {
					return true
				}
			}
			return false
		case *ast.Ident:
			obj := nd.Pkg.Info.ObjectOf(v)
			return obj != nil && pooled[obj]
		}
		return false
	}

	// Iterate assignment propagation locally until stable.
	for changed := true; changed; {
		changed = false
		ast.Inspect(nd.Decl.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			lhss := as.Lhs
			if len(as.Rhs) == 1 {
				// blob, src := c.Recv(...): the buffer is the first result.
				lhss = lhss[:1]
			}
			if len(lhss) != len(as.Rhs) {
				return true
			}
			for i, lhs := range lhss {
				if !isPooledExpr(as.Rhs[i]) {
					continue
				}
				root := argRootObj(nd.Pkg, lhs)
				if root == nil {
					continue
				}
				if pi := paramIndex(nd.Fn, root); pi >= 0 {
					// Stored into (an element/field of) a parameter: the
					// buffer leaves through it. Writing the parameter slice
					// header itself (parts = append(parts, ...)) does not
					// escape — only element/field stores do.
					if _, plain := ast.Unparen(lhs).(*ast.Ident); !plain {
						if !sum.StoresPooledParam(pi) {
							sum.StoresPooledParams |= 1 << uint(pi)
							changed = true
						}
					}
					continue
				}
				if !pooled[root] {
					pooled[root] = true
					changed = true
				}
			}
			return true
		})
	}

	// Does a pooled value reach a return (as a []byte/[][]byte result)?
	if sum.ReturnsPooled {
		return
	}
	ast.Inspect(nd.Decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a closure's returns are not this function's
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if isByteSliceLike(pass.TypeOf(res)) && isPooledExpr(res) {
				sum.ReturnsPooled = true
			}
		}
		return true
	})
}

// collectiveFuncName reports whether fn is a known collective (same tables
// as the collsym checker) and returns its display name.
func collectiveFuncName(fn *types.Func) (string, bool) {
	if fn == nil {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	recv := sig.Recv()
	if recv == nil {
		if fn.Pkg() == nil {
			return "", false
		}
		full := fn.Pkg().Path() + "." + fn.Name()
		if collectiveFuncs[full] {
			return fn.Pkg().Name() + "." + fn.Name(), true
		}
		return "", false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	key := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	set, ok := collectiveMethods[key]
	if !ok {
		return "", false
	}
	name := named.Obj().Name() + "." + fn.Name()
	if set[fn.Name()] || strings.HasSuffix(fn.Name(), "All") {
		return name, true
	}
	return "", false
}
