package span_test

import (
	"sync"
	"testing"

	"pnetcdf/internal/mpi"
	"pnetcdf/internal/span"
)

// gatherWorld runs fn on every rank of an n-rank world and returns what
// rank 0's span.Gather produced.
func gatherWorld(t *testing.T, n int, fn func(c *mpi.Comm) *span.Recorder) ([]span.Span, int64) {
	t.Helper()
	var (
		mu      sync.Mutex
		merged  []span.Span
		dropped int64
		got     bool
	)
	err := mpi.Run(n, mpi.DefaultNet(), func(c *mpi.Comm) error {
		r := fn(c)
		spans, d := span.Gather(c, r)
		if c.Rank() == 0 {
			mu.Lock()
			merged, dropped, got = spans, d, true
			mu.Unlock()
		} else if spans != nil || d != 0 {
			t.Errorf("rank %d: Gather returned non-nil result", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("rank 0 never produced a merge")
	}
	return merged, dropped
}

// TestGatherSkewedClocks: each rank's clock starts at a large
// rank-dependent offset (simulating unsynchronized clocks). The merge must
// preserve each rank's local timestamps, and duration-based analysis must
// be unaffected by the skew.
func TestGatherSkewedClocks(t *testing.T) {
	const n = 4
	merged, dropped := gatherWorld(t, n, func(c *mpi.Comm) *span.Recorder {
		skew := float64(c.Rank()) * 1e6 // a rank-dependent epoch
		clk := &manualClock{t: skew}
		r := span.NewRecorder(c.Rank(), clk.now)
		a := r.Begin(span.AggWrite)
		clk.t = skew + 0.5 + float64(c.Rank())*0.1 // duration 0.5 + 0.1*rank
		a.End()
		return r
	})
	if dropped != 0 {
		t.Fatalf("dropped = %d", dropped)
	}
	if len(merged) != n {
		t.Fatalf("got %d spans, want %d", len(merged), n)
	}
	for i, s := range merged {
		if s.Rank != i {
			t.Fatalf("span %d has rank %d (want sorted by rank)", i, s.Rank)
		}
		wantStart := float64(i) * 1e6
		if s.Start != wantStart {
			t.Fatalf("rank %d start = %v, want %v (skew must be preserved)", i, s.Start, wantStart)
		}
		wantDur := 0.5 + float64(i)*0.1
		if d := s.Dur(); d < wantDur-1e-9 || d > wantDur+1e-9 {
			t.Fatalf("rank %d dur = %v, want %v", i, d, wantDur)
		}
	}
	// Duration-based straggler attribution sees through the skew: rank n-1
	// has the longest agg_write even though rank 0's timestamps are earliest.
	load := span.PhaseLoad(merged, span.AggWrite)
	if load.MaxRank != n-1 {
		t.Fatalf("MaxRank = %d, want %d", load.MaxRank, n-1)
	}
}

// TestGatherUnevenCounts: ranks contribute wildly different span counts
// (including one rank with none).
func TestGatherUnevenCounts(t *testing.T) {
	const n = 4
	merged, _ := gatherWorld(t, n, func(c *mpi.Comm) *span.Recorder {
		r := span.NewRecorder(c.Rank(), nil)
		for i := 0; i < c.Rank()*10; i++ { // rank 0 records nothing
			r.Record("op", -1, float64(i), float64(i)+1, 1, int64(i))
		}
		return r
	})
	want := 0 + 10 + 20 + 30
	if len(merged) != want {
		t.Fatalf("got %d spans, want %d", len(merged), want)
	}
	counts := make(map[int]int)
	for _, s := range merged {
		counts[s.Rank]++
		if s.Off != s.ID-1 { // the i-th span recorded offset i
			t.Fatalf("rank %d span %d: Off = %d after the merge, want %d", s.Rank, s.ID, s.Off, s.ID-1)
		}
	}
	for rank := 0; rank < n; rank++ {
		if counts[rank] != rank*10 {
			t.Fatalf("rank %d: %d spans, want %d", rank, counts[rank], rank*10)
		}
	}
}

// TestGatherSingleRank: a world of one.
func TestGatherSingleRank(t *testing.T) {
	merged, dropped := gatherWorld(t, 1, func(c *mpi.Comm) *span.Recorder {
		r := span.NewRecorder(0, nil)
		a := r.Begin(span.CollWrite)
		r.Begin(span.Round).End()
		a.End()
		return r
	})
	if len(merged) != 2 || dropped != 0 {
		t.Fatalf("got %d spans / %d dropped", len(merged), dropped)
	}
	if merged[0].Phase != span.CollWrite || merged[1].Parent != merged[0].ID {
		t.Fatalf("hierarchy lost in single-rank merge: %+v", merged)
	}
}

// TestGatherEmptyTraces: every rank has an empty (or nil) recorder.
func TestGatherEmptyTraces(t *testing.T) {
	merged, dropped := gatherWorld(t, 3, func(c *mpi.Comm) *span.Recorder {
		if c.Rank() == 1 {
			return nil // disabled rank
		}
		return span.NewRecorder(c.Rank(), nil)
	})
	if len(merged) != 0 || dropped != 0 {
		t.Fatalf("got %d spans / %d dropped from empty traces", len(merged), dropped)
	}
}

// TestGatherDroppedSummed: per-rank drop counts sum across the world.
func TestGatherDroppedSummed(t *testing.T) {
	const n = 3
	_, dropped := gatherWorld(t, n, func(c *mpi.Comm) *span.Recorder {
		r := span.NewRecorder(c.Rank(), nil)
		r.SetCap(1)
		for i := 0; i < 3; i++ { // 1 recorded, 2 dropped per rank
			r.Begin("op").End()
		}
		return r
	})
	if dropped != int64(2*n) {
		t.Fatalf("dropped = %d, want %d", dropped, 2*n)
	}
}

// TestSinkReplaceSnapshot covers the bench-harness container.
func TestSinkReplaceSnapshot(t *testing.T) {
	var sink span.Sink
	spans, d := sink.Snapshot()
	if len(spans) != 0 || d != 0 {
		t.Fatal("fresh sink not empty")
	}
	sink.Replace([]span.Span{{ID: 1, Phase: "x"}}, 5)
	spans, d = sink.Snapshot()
	if len(spans) != 1 || spans[0].Phase != "x" || d != 5 {
		t.Fatalf("snapshot = %+v / %d", spans, d)
	}
	var nilSink *span.Sink
	nilSink.Replace(nil, 0)
	if s, _ := nilSink.Snapshot(); s != nil {
		t.Fatal("nil sink leaked")
	}
}
