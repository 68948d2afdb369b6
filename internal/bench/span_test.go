package bench

import (
	"bytes"
	"testing"

	"pnetcdf/internal/flash"
	"pnetcdf/internal/span"
)

// TestFigure7SpanCriticalPath is the acceptance check for the span
// pipeline: an 8-rank FLASH checkpoint run with span recording must yield
// a cross-rank merge whose critical-path analysis names the bounding rank
// and phase of every two-phase round, and whose Chrome-trace export
// round-trips as valid trace-event JSON.
func TestFigure7SpanCriticalPath(t *testing.T) {
	cfg := flash.Config{NXB: 4, NYB: 4, NZB: 4, NGuard: 2, NVar: 4, NPlotVar: 2, BlocksPerProc: 4}
	fig, err := RunFigure7(Fig7Options{
		Machine: ASCIFrost(),
		Config:  cfg,
		File:    FlashCheckpoint,
		Procs:   []int{8},
		Spans:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	spans, dropped := fig.Spans, fig.Dropped
	if len(spans) == 0 {
		t.Fatal("no spans after an instrumented run")
	}
	if dropped != 0 {
		t.Fatalf("recorder dropped %d spans on a small run", dropped)
	}
	// All 8 ranks contributed to the merge.
	ranks := map[int]bool{}
	for _, s := range spans {
		ranks[s.Rank] = true
		if s.End < s.Start {
			t.Fatalf("span %v ends before it starts", s)
		}
	}
	if len(ranks) != 8 {
		t.Fatalf("merged spans cover %d ranks, want 8", len(ranks))
	}

	rounds := span.CriticalPath(spans)
	if len(rounds) == 0 {
		t.Fatal("critical path found no collective rounds")
	}
	phases := map[string]bool{
		span.Pack: true, span.Exchange: true,
		span.AggWrite: true, span.Round: true,
	}
	for _, rc := range rounds {
		if rc.Rank < 0 || rc.Rank >= 8 {
			t.Fatalf("round (%d,%d): bounding rank %d out of world", rc.Coll, rc.Round, rc.Rank)
		}
		if !phases[rc.Phase] {
			t.Fatalf("round (%d,%d): bounding phase %q not a round phase", rc.Coll, rc.Round, rc.Phase)
		}
		if rc.Work <= 0 {
			t.Fatalf("round (%d,%d): nonpositive bounding work %v", rc.Coll, rc.Round, rc.Work)
		}
	}
	if counts := span.BoundCounts(rounds); len(counts) == 0 {
		t.Fatal("no straggler census from the bound rounds")
	}

	// The FLASH checkpoint writes through one aggregator pipeline; the
	// aggregator load analysis must see agg_write time on at least one rank.
	agg := span.PhaseLoad(spans, span.AggWrite)
	if agg.Max <= 0 {
		t.Fatal("no aggregator write time in the merged spans")
	}

	// The export the bench tools write must be loadable trace-event JSON.
	var buf bytes.Buffer
	if err := span.WriteChromeTrace(&buf, spans, dropped); err != nil {
		t.Fatal(err)
	}
	back, d2, err := span.ReadChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("emitted Chrome trace does not parse: %v", err)
	}
	if len(back) != len(spans) || d2 != dropped {
		t.Fatalf("round trip lost spans: %d -> %d", len(spans), len(back))
	}
}

// TestFigure6SpanSink: the Figure 6 harness returns its last run's spans
// the same way; a small partitioned write must record collective write
// spans on every rank.
func TestFigure6SpanSink(t *testing.T) {
	fig, err := RunFigure6(Fig6Options{
		Machine:    smallMachine(),
		Dims:       [3]int64{32, 32, 32},
		Procs:      []int{4},
		Partitions: []Partition{PartZ},
		Spans:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ranks := map[int]bool{}
	for _, s := range fig.Spans {
		if s.Phase == span.CollWrite {
			ranks[s.Rank] = true
		}
	}
	if len(ranks) != 4 {
		t.Fatalf("%s spans on %d of 4 ranks in the Figure 6 merge (%d spans total)", span.CollWrite, len(ranks), len(fig.Spans))
	}
}
