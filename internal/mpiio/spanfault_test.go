package mpiio

import (
	"testing"

	"pnetcdf/internal/fault"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/span"
)

// checkRoundSpanShape asserts the one shape a collective's spans take at
// every round count: a round span holds only the round's frontend (pack,
// agree, exchange), and the aggregator's I/O, the reply exchange, the scatter
// and the closing agreement are round-tagged children of the collective span
// itself. It returns how many aggregator I/O spans the rank recorded.
func checkRoundSpanShape(t *testing.T, rank int, spans []span.Span) (agg int) {
	t.Helper()
	byID := make(map[int64]span.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		parent := byID[s.Parent].Phase
		switch s.Phase {
		case span.Pack, span.Exchange:
			if parent != span.Round {
				t.Errorf("rank %d: %s span under %q, want under its round span", rank, s.Phase, parent)
			}
		case span.Agree:
			closing := s.Round >= 0 && (parent == span.CollWrite || parent == span.CollRead)
			if parent != span.Round && !closing {
				t.Errorf("rank %d: agree span (round %d) under %q, want under a round span or round-tagged under the collective", rank, s.Round, parent)
			}
		case span.AggWrite, span.AggRead, span.ReplyXchg, span.Scatter:
			if s.Round < 0 || (parent != span.CollWrite && parent != span.CollRead) {
				t.Errorf("rank %d: %s span (round %d) under %q, want round-tagged under the collective", rank, s.Phase, s.Round, parent)
			}
			if s.Phase == span.AggWrite || s.Phase == span.AggRead {
				agg++
			}
		}
	}
	return agg
}

// TestSpansClosedUnderTransientFaults: under an aggressive transient fault
// rate the collective path retries its way to success — and because every
// span is closed by defer (or explicitly before each error return), the
// recorder must end with zero open spans on every rank. A dangling span
// here means an instrumented path returned without unwinding.
func TestSpansClosedUnderTransientFaults(t *testing.T) {
	fsys := testFS()
	in := fault.New(fault.Config{
		Seed: 42, ReadErrRate: 0.2, WriteErrRate: 0.2,
		LatencyRate: 0.1, LatencySpike: 1e-3,
	})
	fsys.SetFault(in)
	const n = 4
	recs := make([]*span.Recorder, n)
	stats := make([]*iostat.Stats, n)
	runWorld(t, n, func(c *mpi.Comm) error {
		proc := c.Proc()
		rec := span.NewRecorder(c.Rank(), proc.Clock)
		proc.SetSpans(rec)
		recs[c.Rank()] = rec
		stats[c.Rank()] = iostat.New()
		proc.SetStats(stats[c.Rank()])
		f, err := Open(c, fsys, "spanfault", ModeRdWr|ModeCreate, nil)
		if err != nil {
			return err
		}
		if err := f.SetView(int64(c.Rank())*8192, contig(8192)); err != nil {
			return err
		}
		buf := make([]byte, 8192)
		for i := 0; i < 4; i++ {
			if err := f.WriteAtAll(0, buf); err != nil {
				return err
			}
			if err := f.ReadAtAll(0, buf); err != nil {
				return err
			}
		}
		return f.Close()
	})
	if faultsInjected(stats) == 0 {
		t.Fatal("no faults injected; test proves nothing")
	}
	for r, rec := range recs {
		if open := rec.Open(); open != 0 {
			t.Errorf("rank %d: %d spans still open after faulted run", r, open)
		}
		checkRoundSpanShape(t, r, rec.Spans()) // one-round collectives
		if len(rec.Spans()) == 0 {
			t.Errorf("rank %d: no spans recorded; instrumentation not active", r)
		}
	}
}

// TestSpansClosedUnderPipelinedFaults: a many-round collective records
// agg_write/agg_read as closed leaves when a request is settled, after the
// next round's communication; under transient faults (resumed inside the
// request, from the cut) every span must still be closed on every rank, and the
// aggregator leaves must actually be present in the trace, in the same shape
// the one-round collectives above record.
func TestSpansClosedUnderPipelinedFaults(t *testing.T) {
	fsys := testFS()
	in := fault.New(fault.Config{
		Seed: 23, ReadErrRate: 0.15, WriteErrRate: 0.15,
	})
	fsys.SetFault(in)
	const n = 4
	info := mpi.NewInfo().Set("cb_buffer_size", "4096").Set("cb_nodes", "2")
	recs := make([]*span.Recorder, n)
	stats := make([]*iostat.Stats, n)
	runWorld(t, n, func(c *mpi.Comm) error {
		proc := c.Proc()
		rec := span.NewRecorder(c.Rank(), proc.Clock)
		proc.SetSpans(rec)
		recs[c.Rank()] = rec
		stats[c.Rank()] = iostat.New()
		proc.SetStats(stats[c.Rank()])
		f, err := Open(c, fsys, "pspan", ModeRdWr|ModeCreate, info)
		if err != nil {
			return err
		}
		if err := f.SetView(int64(c.Rank())*(64<<10), contig(64<<10)); err != nil {
			return err
		}
		buf := make([]byte, 64<<10)
		for i := 0; i < 2; i++ {
			if err := f.WriteAtAll(0, buf); err != nil {
				return err
			}
			if err := f.ReadAtAll(0, buf); err != nil {
				return err
			}
		}
		return f.Close()
	})
	if faultsInjected(stats) == 0 {
		t.Fatal("no faults injected; test proves nothing")
	}
	aggLeaves := 0
	for r, rec := range recs {
		if open := rec.Open(); open != 0 {
			t.Errorf("rank %d: %d spans still open after pipelined faulted run", r, open)
		}
		aggLeaves += checkRoundSpanShape(t, r, rec.Spans())
	}
	if aggLeaves == 0 {
		t.Fatal("no aggregator spans recorded; the round loop was not exercised")
	}
}

// TestSpansClosedAfterPipelinedCrashAbort: a crash surfacing at a deferred
// pipeline boundary aborts the collective after the next round's frontend
// spans have already closed; no span may dangle on that error path.
func TestSpansClosedAfterPipelinedCrashAbort(t *testing.T) {
	fsys := testFS()
	in := fault.New(fault.Config{Seed: 29})
	fsys.SetFault(in)
	const n = 4
	info := mpi.NewInfo().Set("cb_buffer_size", "65536").Set("cb_nodes", "2")
	recs := make([]*span.Recorder, n)
	errs := make([]error, n)
	runWorld(t, n, func(c *mpi.Comm) error {
		proc := c.Proc()
		rec := span.NewRecorder(c.Rank(), proc.Clock)
		proc.SetSpans(rec)
		recs[c.Rank()] = rec
		f, err := Open(c, fsys, "pspancrash", ModeRdWr|ModeCreate, info)
		if err != nil {
			return err
		}
		if err := f.SetView(int64(c.Rank())*(1<<20), contig(1<<20)); err != nil {
			return err
		}
		if c.Rank() == 0 {
			in.ArmCrash(3<<20, false)
		}
		c.Barrier()
		errs[c.Rank()] = f.WriteAtAll(0, make([]byte, 1<<20))
		return f.Close()
	})
	for r := range recs {
		if errs[r] == nil {
			t.Fatalf("rank %d: pipelined collective with crashed peer returned nil", r)
		}
		if open := recs[r].Open(); open != 0 {
			t.Errorf("rank %d: %d spans dangling on the pipelined crash-abort path", r, open)
		}
	}
}

// TestSpansClosedAfterCrashAbort: when a crash point kills one aggregator
// mid-collective, every rank's WriteAtAll returns an error — and every
// rank's spans, including the mid-round ones on the error path, must be
// closed.
func TestSpansClosedAfterCrashAbort(t *testing.T) {
	fsys := testFS()
	in := fault.New(fault.Config{Seed: 7})
	fsys.SetFault(in)
	const n = 4
	recs := make([]*span.Recorder, n)
	errs := make([]error, n)
	runWorld(t, n, func(c *mpi.Comm) error {
		proc := c.Proc()
		rec := span.NewRecorder(c.Rank(), proc.Clock)
		proc.SetSpans(rec)
		recs[c.Rank()] = rec
		f, err := Open(c, fsys, "spancrash", ModeRdWr|ModeCreate, nil)
		if err != nil {
			return err
		}
		if err := f.SetView(int64(c.Rank())*(1<<20), contig(1<<20)); err != nil {
			return err
		}
		if c.Rank() == 0 {
			in.ArmCrash(2<<20, false)
		}
		c.Barrier()
		errs[c.Rank()] = f.WriteAtAll(0, make([]byte, 1<<20))
		return f.Close()
	})
	for r := range recs {
		if errs[r] == nil {
			t.Fatalf("rank %d: collective write with crashed peer returned nil", r)
		}
		if open := recs[r].Open(); open != 0 {
			t.Errorf("rank %d: %d spans dangling on the crash-abort error path", r, open)
		}
	}
}
