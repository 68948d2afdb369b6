package analysis

// Module-wide interprocedural engine (DESIGN.md §14). A per-function check
// stops at function boundaries: extract a lock acquisition or a cost-model
// charge into a helper — possibly in another package — and it is silently
// blind. The engine closes that hole with two pieces:
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
//     monotone bitmask or flag):
//
//     - MayAcquire / Releases: the pfs lock classes the function may
//       acquire or release (lockorder: calling a helper that grabs a
//       lower-ranked class while holding a higher-ranked one is the same
//       inversion as inlining it).
//     - Touches / Charges / Records: chunk-store access, cost-model
//       charging and iostat recording, transitively (accounting).
//
// Known limits, by construction: calls through stored function values get
// no edges; lock facts exclude function-literal bodies, whose execution
// context the enclosing function does not determine; reflection and unsafe
// are invisible.

import (
	"go/ast"
	"go/types"
	"sort"
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
	// MayAcquire / Releases: bitmasks over the pfs lock classes (bit c set
	// = class c), excluding function-literal bodies.
	MayAcquire uint8
	Releases   uint8

	// Accounting facts, transitive over every edge, closures included.
	Touches bool // chunk-store access
	Charges bool // FS.charge
	Records bool // iostat recording
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

// Summary returns fn's summary, or nil for functions outside the module.
func (e *Engine) Summary(fn *types.Func) *Summary {
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

// calleeOf resolves a call to its static *types.Func using pkg's type info:
// methods and package-level functions, nil for indirect calls, conversions
// and builtins.
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

// computeSummaries seeds every summary with its function's direct facts, then
// propagates callee summaries along the edges until none changes. All facts
// are monotone, so this terminates.
func (e *Engine) computeSummaries() {
	funcs := e.Funcs()
	for _, nd := range funcs {
		scanDirect(nd)
	}
	for changed := true; changed; {
		changed = false
		for _, nd := range funcs {
			if e.updateSummary(nd) {
				changed = true
			}
		}
	}
}

// updateSummary folds nd's callee summaries into its own, reporting whether
// it grew.
func (e *Engine) updateSummary(nd *FuncNode) bool {
	old := nd.Sum
	sum := &nd.Sum
	for _, edge := range nd.Edges {
		callee := e.nodes[edge.Callee]
		if callee == nil {
			continue
		}
		cs := &callee.Sum
		if !edge.InClosure {
			sum.MayAcquire |= cs.MayAcquire
			sum.Releases |= cs.Releases
		}
		// Accounting facts follow every edge, closures included: the
		// closure that moves the bytes still belongs to the issuing
		// function's data path.
		sum.Touches = sum.Touches || cs.Touches
		sum.Charges = sum.Charges || cs.Charges
		sum.Records = sum.Records || cs.Records
	}
	return old != *sum
}

// scanDirect collects nd's direct (non-propagated) facts: lock classes and
// accounting touches.
func scanDirect(nd *FuncNode) {
	sum := &nd.Sum
	pass := &Pass{Fset: nd.Pkg.Fset, Pkg: nd.Pkg}
	var walk func(n ast.Node, inClosure bool)
	walk = func(n ast.Node, inClosure bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			if fl, ok := m.(*ast.FuncLit); ok {
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
			callee := calleeOf(nd.Pkg, call)
			if callee == nil {
				return true
			}
			switch {
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
