// In-package tests: these set a recorder's cap directly.
package span

import "testing"

func TestSpanCapAndDropped(t *testing.T) {
	r := NewRecorder(0, nil)
	r.cap = 2
	for i := 0; i < 5; i++ {
		a := r.Begin("op")
		a.End()
	}
	r.Record("leaf", -1, 0, 1, 0, -1)
	if n := len(r.Spans()); n != 2 {
		t.Fatalf("Len() = %d, want 2", n)
	}
	if d := r.Dropped(); d != 4 {
		t.Fatalf("Dropped() = %d, want 4", d)
	}
	if r.Open() != 0 {
		t.Fatalf("Open() = %d", r.Open())
	}
}

func TestSpanReset(t *testing.T) {
	r := NewRecorder(0, nil)
	r.cap = 1
	r.Begin("a").End()
	r.Begin("b").End() // dropped
	if r.Dropped() != 1 {
		t.Fatalf("Dropped() = %d", r.Dropped())
	}
	r.Reset()
	if len(r.Spans()) != 0 || r.Dropped() != 0 || r.Open() != 0 {
		t.Fatalf("after Reset: len=%d dropped=%d open=%d", len(r.Spans()), r.Dropped(), r.Open())
	}
	r.Begin("c").End()
	if len(r.Spans()) != 1 {
		t.Fatalf("%d spans after reset+begin", len(r.Spans()))
	}
}

// TestGatherDroppedSummed: Merge sums the ranks' drop counts.
func TestGatherDroppedSummed(t *testing.T) {
	const n = 3
	recs := make([]*Recorder, n)
	for rank := range recs {
		r := NewRecorder(rank, nil)
		r.cap = 1
		for i := 0; i < 3; i++ { // 1 recorded, 2 dropped per rank
			r.Begin("op").End()
		}
		recs[rank] = r
	}
	if spans, dropped := Merge(recs); len(spans) != n || dropped != int64(2*n) {
		t.Fatalf("merged %d spans, dropped %d; want %d and %d", len(spans), dropped, n, 2*n)
	}
}

// BenchmarkSpanEnabled measures the enabled-path cost per Begin/End pair.
func BenchmarkSpanEnabled(b *testing.B) {
	r := NewRecorder(0, nil)
	r.cap = 1 << 30
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := r.Begin(Round)
		a.SetBytes(int64(i))
		a.End()
	}
}
