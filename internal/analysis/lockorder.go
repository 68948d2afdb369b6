package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockOrder enforces the pfs locking discipline (DESIGN.md §9/§10). Two
// rules:
//
//  1. Documented acquisition order. The pfs data plane has four lock
//     classes, acquired strictly in this order when nested:
//
//     file-table mu (FS.mu)  →  RMW range lock (rangeLock / LockRMW)
//     →  chunk shard locks (storeShard.mu)  →  server queues (FS.srvMu)
//
//     Acquiring a lower-ranked class while holding a higher-ranked one is
//     a lock-inversion deadlock waiting for the right interleaving; the
//     checker flags it, directly or through a call whose summary may
//     acquire that class.
//
//  2. Pairing. Every sync.Mutex/RWMutex Lock/RLock (and pfs LockRMW) in
//     module code must have a matching Unlock/RUnlock (UnlockRMW) on the
//     same lock expression somewhere in the same function — directly or
//     deferred. Handing a held lock to another function is the pattern
//     that silently deadlocks the 32-way sharded store, so it requires an
//     explicit //nclint:allow=lockorder justification.
func LockOrder() *Checker {
	return &Checker{
		Name: "lockorder",
		Doc:  "pfs lock classes must be acquired in the documented order, and every Lock must pair with an Unlock",
		Run:  runLockOrder,
	}
}

// Lock class ranks; acquisition must be in ascending rank.
const (
	classFileTable = 1 // FS.mu
	classRange     = 2 // rangeLock / LockRMW
	classShard     = 3 // storeShard.mu
	classServer    = 4 // FS.srvMu
)

var className = map[int]string{
	classFileTable: "file-table lock (FS.mu)",
	classRange:     "RMW range lock",
	classShard:     "chunk shard lock (storeShard.mu)",
	classServer:    "server-queue lock (FS.srvMu)",
}

// lockClass classifies the receiver of a Lock/Unlock-style call into one of
// the pfs lock classes, or 0.
func lockClass(pass *Pass, call *ast.CallExpr) int {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return 0
	}
	switch sel.Sel.Name {
	case "LockRMW", "UnlockRMW":
		return classRange
	case "lock", "unlock":
		if isPfsType(pass.TypeOf(sel.X), "rangeLock") {
			return classRange
		}
		return 0
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return 0
	}
	// The receiver is a mutex-valued field: classify by owner type + field.
	field, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return 0
	}
	owner := pass.TypeOf(field.X)
	switch {
	case isPfsType(owner, "FS") && field.Sel.Name == "mu":
		return classFileTable
	case isPfsType(owner, "FS") && field.Sel.Name == "srvMu":
		return classServer
	case isPfsType(owner, "storeShard") && field.Sel.Name == "mu":
		return classShard
	case isPfsType(owner, "rangeLock") && field.Sel.Name == "mu":
		return classRange
	}
	return 0
}

// isPfsType reports whether t (or its pointee) is the named type name
// declared in a package called pfs (the real internal/pfs or a fixture).
func isPfsType(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Name() == "pfs" && named.Obj().Name() == name
}

// isMutexLockCall reports whether the call is (R)Lock/(R)Unlock on a
// sync.Mutex/sync.RWMutex (or pfs LockRMW/UnlockRMW), returning the lock's
// receiver rendering, whether it acquires, and whether it is a read lock.
func isMutexLockCall(pass *Pass, call *ast.CallExpr) (key string, isLock, isRead, ok bool) {
	sel, selOK := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !selOK {
		return "", false, false, false
	}
	name := sel.Sel.Name
	switch name {
	case "LockRMW", "UnlockRMW":
		return types.ExprString(sel.X) + ".rmw", name == "LockRMW", false, true
	case "Lock", "RLock", "Unlock", "RUnlock":
		t := pass.TypeOf(sel.X)
		if !isSyncMutex(t) {
			return "", false, false, false
		}
		return types.ExprString(sel.X), name == "Lock" || name == "RLock", name == "RLock" || name == "RUnlock", true
	}
	return "", false, false, false
}

func isSyncMutex(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != "sync" {
		return false
	}
	return named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex"
}

func runLockOrder(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkLockFunc(pass, n.Body)
				}
				return true
			case *ast.FuncLit:
				// Analyzed as its own scope; the traversal continues so
				// literals nested inside it are each visited too.
				checkLockFunc(pass, n.Body)
				return true
			}
			return true
		})
	}
}

// lockEvent is one Lock/Unlock call in source order. A call event (callee
// != nil) is a call into a function whose interprocedural summary may
// acquire locks; acq holds the class bitmask.
type lockEvent struct {
	pos     token.Pos
	key     string
	class   int
	isLock  bool
	isRead  bool
	defered bool
	callee  *types.Func
	acq     uint8
}

// checkLockFunc applies both rules to one function body. The walk is a
// linear source-order approximation: acquisitions push, releases pop, and a
// deferred unlock releases nothing until the end — conservative in the
// direction that catches inversions.
func checkLockFunc(pass *Pass, body *ast.BlockStmt) {
	var events []lockEvent
	var walk func(n ast.Node, deferred bool)
	walk = func(n ast.Node, deferred bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return false // analyzed as its own function
			case *ast.DeferStmt:
				if fl, ok := m.Call.Fun.(*ast.FuncLit); ok {
					walk(fl.Body, true)
				} else {
					walk(m.Call, true)
				}
				return false
			case *ast.CallExpr:
				if key, isLock, isRead, ok := isMutexLockCall(pass, m); ok {
					events = append(events, lockEvent{
						pos: m.Pos(), key: key, class: lockClass(pass, m),
						isLock: isLock, isRead: isRead, defered: deferred,
					})
					return true
				}
				// Interprocedural: a call into a function that may acquire
				// locks is an acquisition event for ordering purposes.
				// Deferred calls run at function end, after the body's
				// releases, and are skipped like deferred unlocks.
				if !deferred {
					if fn := pass.Callee(m); fn != nil {
						if sum := pass.Engine.Summary(fn); sum != nil && sum.MayAcquire != 0 {
							events = append(events, lockEvent{pos: m.Pos(), callee: fn, acq: sum.MayAcquire})
						}
					}
				}
			}
			return true
		})
	}
	walk(body, false)

	// Rule 2: every acquired key must have a release on the same key.
	// Releases count wherever they appear in the function, including inside
	// local closures (the release() pattern: a closure that unlocks is
	// called on every exit path).
	released := map[string]bool{}
	for _, e := range events {
		if !e.isLock {
			released[e.key] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		fl, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(fl.Body, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if key, isLock, _, ok := isMutexLockCall(pass, call); ok && !isLock {
					released[key] = true
				}
			}
			return true
		})
		return true
	})
	for _, e := range events {
		if e.isLock && !e.defered && !released[e.key] {
			pass.Reportf(e.pos, "%s.Lock with no matching Unlock in this function (a lock held across the call boundary deadlocks the data plane)", e.key)
		}
	}

	// Rule 1: classify nesting along the linear event order.
	type held struct {
		class int
		key   string
	}
	var stack []held
	for _, e := range events {
		if e.callee != nil {
			// A callee that may acquire a lower-ranked class while we hold
			// a higher-ranked one is the helper-mediated inversion that no
			// single function body shows. The callee is expected to
			// release what it acquires (its own rule-2 check enforces
			// that), so nothing is pushed.
			for c := classFileTable; c <= classServer; c++ {
				if e.acq&(1<<uint(c)) == 0 {
					continue
				}
				for _, h := range stack {
					if h.class > c {
						pass.Reportf(e.pos, "call to %s may acquire %s while holding %s; documented order is file-table mu -> RMW range lock -> shard locks -> srvMu",
							funcDisplayName(e.callee), className[c], className[h.class])
						break
					}
				}
			}
			continue
		}
		if e.class == 0 {
			continue
		}
		if !e.isLock {
			if e.defered {
				continue // releases at function end, not here
			}
			for i := len(stack) - 1; i >= 0; i-- {
				if stack[i].key == e.key || stack[i].class == e.class {
					stack = append(stack[:i], stack[i+1:]...)
					break
				}
			}
			continue
		}
		for _, h := range stack {
			if h.class > e.class {
				pass.Reportf(e.pos, "acquires %s while holding %s; documented order is file-table mu -> RMW range lock -> shard locks -> srvMu",
					className[e.class], className[h.class])
				break
			}
		}
		stack = append(stack, held{class: e.class, key: e.key})
	}
}
