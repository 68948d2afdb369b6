package span_test

import (
	"testing"

	"pnetcdf/internal/span"
)

// buildWorld fabricates a merged trace: per rank, colls collective-write
// spans each with rounds two-phase rounds; in each round the rank does a
// pack (fixed 1ms), an exchange (exch[rank][coll][round] seconds), and an
// agg_write (agg[rank][coll][round] seconds), then an agreement sync pads
// every rank's round span to the same end. Each rank's clock is skewed by
// rank*1e6 seconds to prove the analyses are duration-based.
func buildWorld(ranks, colls, rounds int, exch, agg func(rank, coll, round int) float64) []span.Span {
	var out []span.Span
	for rank := 0; rank < ranks; rank++ {
		clk := &manualClock{t: float64(rank) * 1e6}
		r := span.NewRecorder(rank, clk.now)
		for c := 0; c < colls; c++ {
			cw := r.Begin(span.CollWrite)
			for rd := 0; rd < rounds; rd++ {
				roundSpan := r.Begin(span.Round)
				roundSpan.SetRound(rd)
				p := r.Begin(span.Pack)
				clk.t += 0.001
				p.End()
				e := r.Begin(span.Exchange)
				clk.t += exch(rank, c, rd)
				e.End()
				a := r.Begin(span.AggWrite)
				clk.t += agg(rank, c, rd)
				a.End()
				// Agreement sync: every rank's round ends at the max work
				// time; emulate by padding the clock to a common width.
				clk.t += 0.5
				roundSpan.End()
			}
			cw.End()
		}
		out = append(out, r.Spans()...)
	}
	return out
}

func TestCriticalPathNamesBoundingRankAndPhase(t *testing.T) {
	// 3 ranks, 2 collectives, 2 rounds. Designed stragglers:
	//   coll 0 round 0: rank 2's agg_write (50ms vs 1ms)
	//   coll 0 round 1: rank 1's exchange  (80ms vs 2ms)
	//   coll 1 round 0: rank 0's agg_write (60ms)
	//   coll 1 round 1: rank 2's exchange  (90ms)
	exch := func(rank, c, rd int) float64 {
		if c == 0 && rd == 1 && rank == 1 {
			return 0.080
		}
		if c == 1 && rd == 1 && rank == 2 {
			return 0.090
		}
		return 0.002
	}
	agg := func(rank, c, rd int) float64 {
		if c == 0 && rd == 0 && rank == 2 {
			return 0.050
		}
		if c == 1 && rd == 0 && rank == 0 {
			return 0.060
		}
		return 0.001
	}
	spans := buildWorld(3, 2, 2, exch, agg)
	rcs := span.CriticalPath(spans)
	if len(rcs) != 4 {
		t.Fatalf("got %d round reports, want 4: %+v", len(rcs), rcs)
	}
	want := []struct {
		coll, round, rank int
		phase             string
	}{
		{0, 0, 2, span.AggWrite},
		{0, 1, 1, span.Exchange},
		{1, 0, 0, span.AggWrite},
		{1, 1, 2, span.Exchange},
	}
	for i, w := range want {
		rc := rcs[i]
		if rc.Coll != w.coll || rc.Round != w.round {
			t.Fatalf("report %d keyed (%d,%d), want (%d,%d)", i, rc.Coll, rc.Round, w.coll, w.round)
		}
		if rc.Rank != w.rank || rc.Phase != w.phase {
			t.Errorf("coll %d round %d bounded by rank %d phase %q, want rank %d phase %q",
				rc.Coll, rc.Round, rc.Rank, rc.Phase, w.rank, w.phase)
		}
		if rc.Ranks != 3 {
			t.Errorf("coll %d round %d Ranks = %d, want 3", rc.Coll, rc.Round, rc.Ranks)
		}
		if rc.Work <= rc.Min || rc.Spread() <= 1 {
			t.Errorf("coll %d round %d work=%v min=%v spread=%v: no straggler signal",
				rc.Coll, rc.Round, rc.Work, rc.Min, rc.Spread())
		}
	}
	counts := span.BoundCounts(rcs)
	if counts[2] != 2 || counts[1] != 1 || counts[0] != 1 {
		t.Fatalf("BoundCounts = %v", counts)
	}
}

func TestCriticalPathSingleRank(t *testing.T) {
	f := func(rank, c, rd int) float64 { return 0.01 }
	spans := buildWorld(1, 1, 3, f, f)
	rcs := span.CriticalPath(spans)
	if len(rcs) != 3 {
		t.Fatalf("got %d reports, want 3", len(rcs))
	}
	for _, rc := range rcs {
		if rc.Rank != 0 || rc.Ranks != 1 {
			t.Fatalf("single-rank report = %+v", rc)
		}
	}
}

func TestCriticalPathEmptyAndNoRounds(t *testing.T) {
	if rcs := span.CriticalPath(nil); len(rcs) != 0 {
		t.Fatalf("empty trace produced %d reports", len(rcs))
	}
	// Spans with no round phases at all (e.g. independent I/O only).
	r := span.NewRecorder(0, nil)
	r.Begin(span.NCPut).End()
	if rcs := span.CriticalPath(r.Spans()); len(rcs) != 0 {
		t.Fatalf("roundless trace produced %d reports", len(rcs))
	}
}

// TestCriticalPathUnevenRanks: a round recorded by only a subset of ranks
// is analyzed over the ranks present.
func TestCriticalPathUnevenRanks(t *testing.T) {
	f := func(rank, c, rd int) float64 { return 0.01 * float64(rank+1) }
	spans := buildWorld(2, 1, 1, f, f)
	// Drop a third rank in by hand with only a round span, no collective
	// parent and no children.
	spans = append(spans, span.Span{
		ID: 999, Rank: 7, Phase: span.Round, Round: 0, Start: 0, End: 0.2,
	})
	rcs := span.CriticalPath(spans)
	// Rank 7's orphan round groups separately (no coll parent → coll -1).
	if len(rcs) != 2 {
		t.Fatalf("got %d reports, want 2: %+v", len(rcs), rcs)
	}
	if rcs[0].Coll != -1 || rcs[0].Rank != 7 || rcs[0].Ranks != 1 {
		t.Fatalf("orphan report = %+v", rcs[0])
	}
	if rcs[1].Ranks != 2 || rcs[1].Rank != 1 {
		t.Fatalf("main report = %+v", rcs[1])
	}
}

// TestCriticalPathPipelinedOverlap: the pipelined collective path records
// aggregator I/O as round-tagged leaves directly under the coll span whose
// intervals overlap the NEXT round's span (the round span itself closes at
// the end of the frontend exchange). The analysis must attribute that I/O
// to its own round and must not charge the overlapped stretch twice: the
// per-rank round works have to sum to the collective's wall time, not more.
func TestCriticalPathPipelinedOverlap(t *testing.T) {
	clk := &manualClock{}
	r := span.NewRecorder(0, clk.now)
	cw := r.Begin(span.CollWrite)
	// Round 0 frontend [0,2]: pack [0,1], exchange [1,2].
	rs0 := r.Begin(span.Round)
	rs0.SetRound(0)
	p := r.Begin(span.Pack)
	clk.t = 1
	p.End()
	e := r.Begin(span.Exchange)
	clk.t = 2
	e.End()
	rs0.End()
	// Round 1 frontend [2,4] while round 0's write is in flight.
	rs1 := r.Begin(span.Round)
	rs1.SetRound(1)
	p = r.Begin(span.Pack)
	clk.t = 3
	p.End()
	e = r.Begin(span.Exchange)
	clk.t = 4
	e.End()
	rs1.End()
	// Wait on round 0's write: issued at t=2, completed at t=5 — its
	// interval covers round 1's entire frontend. Recorded as a closed
	// round-tagged leaf under the still-open coll span, like the pipelined
	// write loop does.
	clk.t = 5
	r.Record(span.AggWrite, 0, 2, 5, 1024, -1)
	// Drain: round 1's write runs serially [5,7].
	clk.t = 7
	r.Record(span.AggWrite, 1, 5, 7, 1024, -1)
	cw.End()

	rcs := span.CriticalPath(r.Spans())
	if len(rcs) != 2 {
		t.Fatalf("got %d reports, want 2: %+v", len(rcs), rcs)
	}
	// Round 0 is charged [0,5]: frontend plus its overlapped write.
	if rcs[0].Round != 0 || rcs[0].Phase != span.AggWrite || rcs[0].Work != 5 {
		t.Errorf("round 0 = %+v, want work 5 bounded by agg_write", rcs[0])
	}
	// Round 1 is charged only [5,7]: the cursor clips out [2,5], already
	// attributed to round 0. Naive attribution (round-span start to last
	// span end) would report 5 here and double-count the overlap.
	if rcs[1].Round != 1 || rcs[1].Phase != span.AggWrite || rcs[1].Work != 2 {
		t.Errorf("round 1 = %+v, want work 2 bounded by agg_write", rcs[1])
	}
	if total := rcs[0].Work + rcs[1].Work; total != 7 {
		t.Errorf("round works sum to %v, want the coll wall time 7 (no double-counting)", total)
	}
}

func TestPhaseLoadAndHistogram(t *testing.T) {
	f := func(rank, c, rd int) float64 { return 0.01 }
	agg := func(rank, c, rd int) float64 { return 0.010 * float64(rank+1) }
	spans := buildWorld(4, 1, 2, f, agg)
	load := span.PhaseLoad(spans, span.AggWrite)
	if len(load.PerRank) != 4 || load.MaxRank != 3 {
		t.Fatalf("load = %+v", load)
	}
	// rank r does 2 rounds × 10ms(r+1): 20,40,60,80ms; mean 50ms; max/mean 1.6.
	if ib := load.Imbalance(); ib < 1.59 || ib > 1.61 {
		t.Fatalf("Imbalance() = %v, want 1.6", ib)
	}
	counts, labels := load.Histogram(3)
	if len(counts) != 3 || len(labels) != 3 {
		t.Fatalf("histogram = %v / %v", counts, labels)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 4 {
		t.Fatalf("histogram counted %d ranks, want 4", total)
	}

	loads := span.AllLoads(spans)
	if len(loads) == 0 || loads[0].Phase != span.AggWrite {
		t.Fatalf("AllLoads most-imbalanced = %+v", loads[:1])
	}
	// Uniform phase: histogram of identical values collapses to one bucket.
	// (Built without clock skew so the durations are bit-identical.)
	uniform := []span.Span{
		{ID: 1, Rank: 0, Phase: span.Pack, Start: 0, End: 1},
		{ID: 1, Rank: 1, Phase: span.Pack, Start: 5, End: 6},
	}
	packLoad := span.PhaseLoad(uniform, span.Pack)
	counts, _ = packLoad.Histogram(3)
	if len(counts) != 1 || counts[0] != 2 {
		t.Fatalf("uniform histogram = %v", counts)
	}
}

// TestPhaseLoadCountsIdleRanks: an aggregator with nothing in its window
// records no agg_write span, and the three ranks of eight that were idle
// while five wrote are the imbalance — min, mean and both factors are over
// the trace's eight ranks, not over the five that appear in the phase.
func TestPhaseLoadCountsIdleRanks(t *testing.T) {
	var spans []span.Span
	for rank := 0; rank < 8; rank++ {
		// Every rank takes part in the collective.
		spans = append(spans, span.Span{ID: 1, Rank: rank, Phase: span.CollWrite, Round: -1, Start: 0, End: 1})
		if rank < 5 {
			spans = append(spans, span.Span{ID: 2, Parent: 1, Rank: rank, Phase: span.AggWrite,
				Start: 0, End: 0.010 * float64(rank+1), Bytes: 1000})
		}
	}
	load := span.PhaseLoad(spans, span.AggWrite)
	if len(load.PerRank) != 8 || load.Busy() != 5 {
		t.Fatalf("%d ranks, %d busy; want 8 and 5", len(load.PerRank), load.Busy())
	}
	if load.Min != 0 || load.MaxRank != 4 {
		t.Errorf("min %v on max rank %d; an idle rank's time is 0 and rank 4 is slowest", load.Min, load.MaxRank)
	}
	// 10+20+30+40+50 ms over 8 ranks is a mean of 18.75 ms: 50/18.75.
	if ib := load.Imbalance(); ib < 2.66 || ib > 2.67 {
		t.Errorf("Imbalance() = %v, want 2.667 (over the five busy ranks alone it is 1.667)", ib)
	}
	// 5000 bytes over 8 ranks is 625 each: 1000/625.
	if bi := load.ByteImbalance(); bi != 1.6 {
		t.Errorf("ByteImbalance() = %v, want 1.6 (over the five busy ranks alone it is 1.0)", bi)
	}
	counts, _ := load.Histogram(5)
	if total := counts[0] + counts[1] + counts[2] + counts[3] + counts[4]; total != 8 || counts[0] < 3 {
		t.Errorf("histogram %v: want all 8 ranks, the idle three in the first bucket", counts)
	}
}

// TestCriticalPathAgreeIsWaiting: the round's count allreduce — an agree span
// between pack and exchange, which also carries an earlier round's verdict —
// is where the ranks that arrive early wait for the slowest. Rank 0 arrives
// first and waits 100 ms there, so its round span is by far the longest, but
// its work is 3 ms; rank 1's 10 ms exchange bounds round 1. An agreement an
// aggregator sits in while its own request is in flight is not a wait: rank
// 2's 50 ms agree lies inside its 60 ms agg_write of round 0, which bounds
// round 0 with all 60 ms. PhaseLoad takes the waits out of the round spans
// the same way.
func TestCriticalPathAgreeIsWaiting(t *testing.T) {
	type phase struct {
		name string
		dur  float64
	}
	var spans []span.Span
	for rank, round := range [][]phase{
		{{span.Pack, 0.001}, {span.Agree, 0.100}, {span.Exchange, 0.002}},
		{{span.Pack, 0.001}, {span.Agree, 0.001}, {span.Exchange, 0.010}},
		{{span.Pack, 0.001}, {span.Agree, 0.050}, {span.Exchange, 0.002}},
	} {
		clk := &manualClock{t: float64(rank) * 1e6}
		r := span.NewRecorder(rank, clk.now)
		cw := r.Begin(span.CollWrite)
		if rank == 2 {
			// The previous round's write, in flight across this round's
			// frontend.
			r.Record(span.AggWrite, 0, clk.t, clk.t+0.060, 4096, -1)
		}
		rs := r.Begin(span.Round)
		rs.SetRound(1)
		for _, p := range round {
			s := r.Begin(p.name)
			clk.t += p.dur
			s.End()
		}
		rs.End()
		cw.End()
		spans = append(spans, r.Spans()...)
	}
	rcs := span.CriticalPath(spans)
	if len(rcs) != 2 {
		t.Fatalf("got %d round reports, want 2: %+v", len(rcs), rcs)
	}
	if rc := rcs[0]; rc.Rank != 2 || rc.Phase != span.AggWrite || rc.Work < 0.0599 {
		t.Errorf("round 0 = %+v; want rank 2's 60 ms agg_write, the agree beside it not taken off", rc)
	}
	if rc := rcs[1]; rc.Rank != 1 || rc.Phase != span.Exchange || rc.Work > 0.0111 {
		t.Errorf("round 1 = %+v; want rank 1's exchange, 11 ms of work (its own 1 ms wait taken off)", rc)
	}
	load := span.PhaseLoad(spans, span.Round)
	if got := load.PerRank[0].Seconds; got < 0.0029 || got > 0.0031 {
		t.Errorf("rank 0's round load %v s, want its 3 ms of work without the 100 ms wait", got)
	}
	if got := load.PerRank[2].Seconds; got < 0.0529 || got > 0.0531 {
		t.Errorf("rank 2's round load %v s, want all 53 ms: its agree ran beside its own write", got)
	}
	if agree := span.PhaseLoad(spans, span.Agree); agree.MaxRank != 0 {
		t.Errorf("agree load peaks on rank %d, want rank 0, the one that waited", agree.MaxRank)
	}
}

// TestPhaseLoadWaitsPartlyCovered: a wait is an agree stretch no other leaf
// of the rank covers. Rank 0's round [0, 10] holds two agree spans, [1, 5]
// and [6, 9]; its agg_write leaf [0, 3] (a request in flight) covers the
// first one's start and a pfs_write leaf [8, 12] the second one's end, so
// the waits are [3, 5] and [6, 8] and the round did 6 s of work.
func TestPhaseLoadWaitsPartlyCovered(t *testing.T) {
	spans := []span.Span{
		{ID: 1, Rank: 0, Phase: span.CollWrite, Round: -1, Start: 0, End: 12},
		{ID: 2, Parent: 1, Rank: 0, Phase: span.Round, Round: 0, Start: 0, End: 10},
		{ID: 3, Parent: 2, Rank: 0, Phase: span.Agree, Round: -1, Start: 1, End: 5},
		{ID: 4, Parent: 2, Rank: 0, Phase: span.Agree, Round: -1, Start: 6, End: 9},
		{ID: 5, Parent: 1, Rank: 0, Phase: span.AggWrite, Round: 0, Start: 0, End: 3},
		{ID: 6, Parent: 1, Rank: 0, Phase: span.PFSWrite, Round: -1, Start: 8, End: 12},
	}
	for _, c := range []struct {
		phase string
		want  float64
	}{{span.Round, 6}, {span.CollWrite, 8}, {span.Agree, 7}, {span.AggWrite, 3}} {
		if got := span.PhaseLoad(spans, c.phase).PerRank[0].Seconds; got != c.want {
			t.Errorf("%s load %v s, want %v", c.phase, got, c.want)
		}
	}
}
