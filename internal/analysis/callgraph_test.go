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
// facts every interprocedural checker depends on must come out of the
// fixed point exactly as documented.
func TestModuleSummaries(t *testing.T) {
	l := sharedLoader(t)
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	e := NewEngine(pkgs)
	const mpiio = "pnetcdf/internal/mpiio"
	const pfs = "pnetcdf/internal/pfs"

	sum := func(pkg, name string) *Summary {
		t.Helper()
		fn := e.Lookup(pkg, name)
		if fn == nil {
			t.Fatalf("Lookup(%s, %s) = nil", pkg, name)
		}
		s := e.Summary(fn)
		if s == nil {
			t.Fatalf("Summary(%s.%s) = nil", pkg, name)
		}
		return s
	}

	// bufpool facts: recycleRound puts the received messages; packWriteRound
	// parks pooled buffers in its parts parameter (index 6); encodeWriteMsg
	// returns a pooled buffer; deliver gives its parts (index 1) away
	// through Comm.Send and parks what Comm.Recv handed it in its out
	// parameter (index 2), and sparseExchange does the same with its parts
	// and out (indexes 2 and 3) through deliver, one hop down — or puts the
	// parts back itself on a failed verdict.
	if s := sum(mpiio, "recycleRound"); !s.PutsParam(0) {
		t.Errorf("recycleRound: PutsParams = %b, want bit 0", s.PutsParams)
	}
	for _, fn := range []struct {
		name       string
		parts, out int
	}{{"deliver", 1, 2}, {"sparseExchange", 2, 3}} {
		if s := sum(mpiio, fn.name); !s.PutsParam(fn.parts) || !s.StoresPooledParam(fn.out) {
			t.Errorf("%s: PutsParams = %b, StoresPooledParams = %b, want bit %d and bit %d",
				fn.name, s.PutsParams, s.StoresPooledParams, fn.parts, fn.out)
		}
	}
	if s := sum(mpiio, "File.packWriteRound"); !s.StoresPooledParam(6) {
		t.Errorf("File.packWriteRound: StoresPooledParams = %b, want bit 6 (parts)", s.StoresPooledParams)
	}
	if s := sum(mpiio, "encodeWriteMsg"); !s.ReturnsPooled {
		t.Error("encodeWriteMsg: ReturnsPooled = false")
	}

	// collsym fact: the round loop reaches collective agreement.
	if s := sum(mpiio, "File.writeRounds"); !s.HasCollectives() {
		t.Error("File.writeRounds: no collectives in summary")
	}

	// accounting facts: the public vectored I/O paths touch the store,
	// charge the cost model and record iostat. (Charges marks callers of
	// FS.charge, mirroring the intraprocedural checker's reachability.)
	for _, name := range []string{"File.WriteVec", "File.ReadV"} {
		if s := sum(pfs, name); !s.Touches || !s.Charges || !s.Records {
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
