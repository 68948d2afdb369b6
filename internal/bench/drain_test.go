package bench

import (
	"testing"

	"pnetcdf/internal/flash"
	"pnetcdf/internal/span"
)

// lastWriteEnd is the end of the latest pfs_write span, 0 when there is none.
func lastWriteEnd(spans []span.Span) float64 {
	var end float64
	for _, s := range spans {
		if s.Phase == span.PFSWrite {
			end = max(end, s.End)
		}
	}
	return end
}

// TestHarnessesTimeTheDrain: a data write is written behind (DESIGN.md §13),
// so a harness that stops its clock before Sync or Close reports bandwidth
// the servers never delivered. Every harness — both figures and every
// ablation — runs here at a small size, and the makespan each reports must
// cover the end of the last pfs_write span its measured phase recorded.
func TestHarnessesTimeTheDrain(t *testing.T) {
	check := func(name string, makespan float64, spans []span.Span) {
		t.Helper()
		if end := lastWriteEnd(spans); end > makespan*(1+1e-9) {
			t.Errorf("%s: reports a makespan of %g s, but its last write ends at %g s", name, makespan, end)
		}
	}

	dims := [3]int64{32, 32, 32}
	for _, part := range []Partition{PartZ, PartX} {
		sink := new(span.Sink)
		fig, err := RunFigure6(Fig6Options{Machine: smallMachine(), Dims: dims, Procs: []int{4},
			Partitions: []Partition{part}, Spans: sink})
		if err != nil {
			t.Fatal(err)
		}
		spans, _ := sink.Snapshot()
		check("figure 6 "+part.String(), float64(fig.Bytes)/(fig.Points[part][0]*1e6), spans)
	}

	cfg := flash.Config{NXB: 4, NYB: 4, NZB: 4, NGuard: 2, NVar: 4, NPlotVar: 2, BlocksPerProc: 4}
	for _, file := range []FlashFile{FlashCheckpoint, FlashPlotfile, FlashCorners} {
		sink := new(span.Sink)
		rep, _, err := runFlashOnce(Fig7Options{Machine: ASCIFrost(), Config: cfg, File: file, Spans: sink}, 4, false)
		if err != nil {
			t.Fatal(err)
		}
		spans, _ := sink.Snapshot()
		check("figure 7 "+file.String(), rep.Seconds, spans)
	}

	// The layout ablation is two figure 7 plotfile runs, covered above.
	var ablation string
	var writes int
	legTrace = func(makespan float64, spans []span.Span) {
		if lastWriteEnd(spans) > 0 {
			writes++
		}
		check(ablation+" ablation", makespan, spans)
	}
	defer func() { legTrace = nil }()
	m := smallMachine()
	for name, run := range map[string]func() (AblationResult, error){
		"two-phase":       func() (AblationResult, error) { return AblationTwoPhase(m, [3]int64{32, 32, 32}, 4) },
		"sieving":         func() (AblationResult, error) { return AblationSieving(m, [3]int64{16, 16, 32}, 4) },
		"header strategy": func() (AblationResult, error) { return AblationHeaderStrategy(m, 20, 4) },
		"record batch":    func() (AblationResult, error) { return AblationRecordBatch(m, 4, 2, 4, 1024) },
		"prefetch":        func() (AblationResult, error) { return AblationPrefetch(m, 4, 12) },
		"var align":       func() (AblationResult, error) { return AblationVarAlign(m, 4, 4) },
	} {
		ablation = name
		if _, err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	// Two legs each of two-phase, record batch and var align write.
	if writes != 6 {
		t.Errorf("%d ablation legs traced writes, want 6", writes)
	}
}
