// External test package so merge_test.go can drive real mpi ranks
// (mpi imports span; the reverse would be a cycle).
package span_test

import (
	"testing"

	"pnetcdf/internal/span"
)

// manualClock is an adjustable test clock.
type manualClock struct{ t float64 }

func (c *manualClock) now() float64 { return c.t }

func TestSpanNesting(t *testing.T) {
	clk := &manualClock{}
	r := span.NewRecorder(3, clk.now)

	root := r.Begin(span.CollWrite)
	clk.t = 1
	child := r.Begin(span.Round)
	child.SetRound(0)
	child.SetBytes(100)
	child.AddBytes(28)
	clk.t = 2
	child.End()
	clk.t = 5
	root.End()

	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	rootS, childS := spans[0], spans[1]
	if rootS.Phase != span.CollWrite || rootS.Parent != 0 {
		t.Fatalf("root = %+v", rootS)
	}
	if childS.Phase != span.Round || childS.Parent != rootS.ID {
		t.Fatalf("child = %+v (root ID %d)", childS, rootS.ID)
	}
	if childS.Round != 0 || childS.Bytes != 128 {
		t.Fatalf("child round/bytes = %d/%d", childS.Round, childS.Bytes)
	}
	if childS.Start != 1 || childS.End != 2 || rootS.Start != 0 || rootS.End != 5 {
		t.Fatalf("times: root [%v,%v] child [%v,%v]", rootS.Start, rootS.End, childS.Start, childS.End)
	}
	if rootS.Rank != 3 || childS.Rank != 3 {
		t.Fatalf("ranks: %d, %d", rootS.Rank, childS.Rank)
	}
	if r.Open() != 0 {
		t.Fatalf("Open() = %d after closing all", r.Open())
	}
}

// TestSpanEndClosesDescendants: ending an outer span auto-closes any open
// descendants at the same instant — the property that makes a single
// function-level defer safe on error paths.
func TestSpanEndClosesDescendants(t *testing.T) {
	clk := &manualClock{}
	r := span.NewRecorder(0, clk.now)

	outer := r.Begin("outer")
	inner := r.Begin("inner")
	innermost := r.Begin("innermost")
	_ = inner
	_ = innermost
	clk.t = 7
	outer.End() // inner + innermost still open

	if r.Open() != 0 {
		t.Fatalf("Open() = %d, want 0", r.Open())
	}
	for _, s := range r.Spans() {
		if s.End != 7 {
			t.Fatalf("span %q end = %v, want 7", s.Phase, s.End)
		}
	}
	// Idempotent: ending the already-auto-closed children must not disturb
	// anything (and must not panic).
	inner.End()
	innermost.End()
	outer.End()
	if n := r.Len(); n != 3 {
		t.Fatalf("Len() = %d after duplicate Ends, want 3", n)
	}
}

func TestSpanCapAndDropped(t *testing.T) {
	r := span.NewRecorder(0, nil)
	r.SetCap(2)
	for i := 0; i < 5; i++ {
		a := r.Begin("op")
		a.End()
	}
	r.Record("leaf", -1, 0, 1, 0, -1)
	if n := r.Len(); n != 2 {
		t.Fatalf("Len() = %d, want 2", n)
	}
	if d := r.Dropped(); d != 4 {
		t.Fatalf("Dropped() = %d, want 4", d)
	}
	if r.Open() != 0 {
		t.Fatalf("Open() = %d", r.Open())
	}
}

func TestSpanRecordExplicit(t *testing.T) {
	clk := &manualClock{}
	r := span.NewRecorder(1, clk.now)
	parent := r.Begin(span.CollWrite)
	r.Record(span.PFSWrite, 2, 0.5, 0.9, 4096, 8192)
	parent.End()

	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	leaf := spans[1]
	if leaf.Phase != span.PFSWrite || leaf.Parent != spans[0].ID {
		t.Fatalf("leaf = %+v", leaf)
	}
	if leaf.Round != 2 || leaf.Bytes != 4096 || leaf.Off != 8192 || leaf.Start != 0.5 || leaf.End != 0.9 {
		t.Fatalf("leaf fields = %+v", leaf)
	}
	if spans[0].Off != -1 {
		t.Fatalf("a begun span has Off %d, want -1", spans[0].Off)
	}
}

func TestSpanOpenClampedInSnapshot(t *testing.T) {
	clk := &manualClock{t: 4}
	r := span.NewRecorder(0, clk.now)
	a := r.Begin("op")
	spans := r.Spans()
	if len(spans) != 1 || spans[0].End != spans[0].Start {
		t.Fatalf("open span snapshot = %+v", spans)
	}
	if r.Open() != 1 {
		t.Fatalf("Open() = %d, want 1", r.Open())
	}
	a.End()
}

func TestSpanReset(t *testing.T) {
	r := span.NewRecorder(0, nil)
	r.SetCap(1)
	r.Begin("a").End()
	r.Begin("b").End() // dropped
	if r.Dropped() != 1 {
		t.Fatalf("Dropped() = %d", r.Dropped())
	}
	r.Reset()
	if r.Len() != 0 || r.Dropped() != 0 || r.Open() != 0 {
		t.Fatalf("after Reset: len=%d dropped=%d open=%d", r.Len(), r.Dropped(), r.Open())
	}
	r.Begin("c").End()
	if r.Len() != 1 {
		t.Fatalf("Len() = %d after reset+begin", r.Len())
	}
}

// TestSpanNilSafety: every entry point must no-op on a nil recorder and on
// zero-value handles.
func TestSpanNilSafety(t *testing.T) {
	var r *span.Recorder
	a := r.Begin("x")
	a.SetRound(1)
	a.SetBytes(2)
	a.AddBytes(3)
	a.End()
	r.Record("y", 0, 0, 1, 2, -1)
	r.SetCap(10)
	r.Reset()
	if r.Len() != 0 || r.Open() != 0 || r.Dropped() != 0 || r.Spans() != nil {
		t.Fatal("nil recorder leaked state")
	}
	var zero span.Active
	zero.End()
	zero.SetBytes(1)
}
