package span_test

import (
	"testing"

	"pnetcdf/internal/mpi"
	"pnetcdf/internal/span"
)

// gatherWorld runs fn on every rank of an n-rank world, each rank keeping
// the recorder fn returns in its slot, and merges the slots with span.Merge
// once mpi.Run has returned.
func gatherWorld(t *testing.T, n int, fn func(c *mpi.Comm) *span.Recorder) ([]span.Span, int64) {
	t.Helper()
	slots := make([]*span.Recorder, n)
	err := mpi.Run(n, mpi.DefaultNet(), func(c *mpi.Comm) error {
		slots[c.Rank()] = fn(c)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return span.Merge(slots)
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
