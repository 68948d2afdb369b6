package analysis

import (
	"testing"
)

// edgeTargets returns the display names of a node's callees, with their
// package paths, as "pkgpath:Name" strings.
func edgeTargets(e *Engine, nd *FuncNode) map[string]CallEdge {
	out := map[string]CallEdge{}
	for _, edge := range nd.Edges {
		key := edge.Callee.Pkg().Path() + ":" + funcDisplayName(edge.Callee)
		out[key] = edge
	}
	return out
}

func lookupNode(t *testing.T, e *Engine, pkgPath, name string) *FuncNode {
	t.Helper()
	fn := e.Lookup(pkgPath, name)
	if fn == nil {
		t.Fatalf("Lookup(%s, %s) = nil", pkgPath, name)
	}
	nd := e.Node(fn)
	if nd == nil {
		t.Fatalf("no node for %s.%s", pkgPath, name)
	}
	return nd
}

// TestCallGraphEdges pins the graph construction rules on the callgraph
// fixture: direct cross-package edges, method nodes, CHA fan-out for
// interface calls, and closure tagging.
func TestCallGraphEdges(t *testing.T) {
	pkgs := loadFixtureTree(t, "callgraph")
	e := NewEngine(pkgs)
	const root = "fixture/callgraph"
	const help = "fixture/callgraph/helper"

	direct := edgeTargets(e, lookupNode(t, e, root, "direct"))
	if edge, ok := direct[help+":Double"]; !ok {
		t.Errorf("direct: missing cross-package edge to helper.Double (have %v)", keys(direct))
	} else if edge.Interface || edge.InClosure {
		t.Errorf("direct -> Double flagged Interface=%v InClosure=%v; want plain edge", edge.Interface, edge.InClosure)
	}

	// Interface dispatch fans out to every module implementor, tagged.
	dispatch := edgeTargets(e, lookupNode(t, e, root, "dispatch"))
	for _, want := range []string{root + ":valueImpl.Run", root + ":ptrImpl.Run"} {
		edge, ok := dispatch[want]
		if !ok {
			t.Errorf("dispatch: missing CHA edge to %s (have %v)", want, keys(dispatch))
			continue
		}
		if !edge.Interface {
			t.Errorf("dispatch -> %s not marked as an interface edge", want)
		}
	}

	// Method node with an edge to a package function.
	viaMethod := edgeTargets(e, lookupNode(t, e, root, "caller.viaMethod"))
	if _, ok := viaMethod[root+":direct"]; !ok {
		t.Errorf("caller.viaMethod: missing edge to direct (have %v)", keys(viaMethod))
	}

	// A call made only inside a function literal is tagged InClosure.
	inClosure := edgeTargets(e, lookupNode(t, e, root, "inClosure"))
	edge, ok := inClosure[root+":direct"]
	if !ok {
		t.Fatalf("inClosure: missing closure edge to direct (have %v)", keys(inClosure))
	}
	if !edge.InClosure {
		t.Error("inClosure -> direct not tagged InClosure")
	}
}

func keys(m map[string]CallEdge) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestModuleSummaries pins the summary lattice on the real module: the
// facts the lockorder and accounting checkers depend on must come out of the
// fixed point exactly as documented.
func TestModuleSummaries(t *testing.T) {
	l := sharedLoader(t)
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	e := NewEngine(pkgs)
	const pfs = "pnetcdf/internal/pfs"

	sum := func(name string) *Summary {
		t.Helper()
		fn := e.Lookup(pfs, name)
		if fn == nil {
			t.Fatalf("Lookup(%s) = nil", name)
		}
		s := e.Summary(fn)
		if s == nil {
			t.Fatalf("Summary(%s) = nil", name)
		}
		return s
	}

	// lock facts: landing bytes takes the chunk shard locks through the
	// store, one call down; a vectored write also takes the server-queue lock
	// through FS.charge, and Sync takes only that one itself.
	const shard, server = 1 << classShard, 1 << classServer
	for _, fn := range []struct {
		name string
		acq  uint8
	}{{"File.storeWriteVec", shard}, {"File.WriteVec", shard | server}, {"File.Sync", server}} {
		if s := sum(fn.name); s.MayAcquire != fn.acq || s.Releases != fn.acq {
			t.Errorf("%s: MayAcquire = %b, Releases = %b, want %b", fn.name, s.MayAcquire, s.Releases, fn.acq)
		}
	}

	// accounting facts: the public vectored I/O paths touch the store,
	// charge the cost model and record iostat.
	for _, name := range []string{"File.WriteVec", "File.ReadV"} {
		if s := sum(name); !s.Touches || !s.Charges || !s.Records {
			t.Errorf("%s: Touches=%v Charges=%v Records=%v, want all true", name, s.Touches, s.Charges, s.Records)
		}
	}
}

// TestFixtureLockSummaries pins MayAcquire propagation (including the
// two-hop indirection) on the lockorder fixture.
func TestFixtureLockSummaries(t *testing.T) {
	pkgs := loadFixtureTree(t, "lockorder_interp")
	e := NewEngine(pkgs)
	const root = "fixture/lockorder_interp"
	for _, name := range []string{"Store.TableTouch", "Store.tableIndirect"} {
		fn := e.Lookup(root, name)
		if fn == nil {
			t.Fatalf("Lookup(%s) = nil", name)
		}
		s := e.Summary(fn)
		if s == nil || s.MayAcquire&(1<<uint(classFileTable)) == 0 {
			t.Errorf("%s: MayAcquire = %b, want file-table bit", name, s.MayAcquire)
		}
	}
	fn := e.Lookup(root, "Store.ShardTouch")
	if fn == nil {
		t.Fatal("Lookup(Store.ShardTouch) = nil")
	}
	if s := e.Summary(fn); s.MayAcquire&(1<<uint(classShard)) == 0 {
		t.Errorf("Store.ShardTouch: MayAcquire = %b, want shard bit", s.MayAcquire)
	}
}
