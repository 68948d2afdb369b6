package bench

import (
	"fmt"
	"testing"

	"pnetcdf/internal/core"
	"pnetcdf/internal/flash"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/nctype"
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

// TestHarnessesTimeTheDrain: a data write is written behind (DESIGN.md §4),
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
		fig, err := RunFigure6(Fig6Options{Machine: smallMachine(), Dims: dims, Procs: []int{4},
			Partitions: []Partition{part}, Spans: true})
		if err != nil {
			t.Fatal(err)
		}
		check("figure 6 "+part.String(), float64(fig.Bytes)/(fig.Points[part][0]*1e6), fig.Spans)
	}

	cfg := flash.Config{NXB: 4, NYB: 4, NZB: 4, NGuard: 2, NVar: 4, NPlotVar: 2, BlocksPerProc: 4}
	for _, file := range []FlashFile{FlashCheckpoint, FlashPlotfile, FlashCorners} {
		rep, pr, err := runFlashOnce(Fig7Options{Machine: ASCIFrost(), Config: cfg, File: file, Spans: true}, 4, false)
		if err != nil {
			t.Fatal(err)
		}
		spans, _ := pr.spans()
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

// TestMeasuredPhaseStartsDrained: EndDef returns on the root while its
// header writes are still in flight (DESIGN.md §4), and a measured phase
// that starts right after it (zeroClocks, as Figure 6 and the ablations
// start theirs) begins with none: Close, the phase's first drain, has
// nothing from before the phase to settle, so it records no drain span.
func TestMeasuredPhaseStartsDrained(t *testing.T) {
	m := SDSCBlueHorizon()
	for _, nprocs := range []int{1, 4} {
		fsys := m.NewFS()
		err := mpi.Run(nprocs, m.Net, func(c *mpi.Comm) error {
			rec := span.NewRecorder(c.Rank(), c.Proc().Clock)
			c.Proc().SetSpans(rec)
			d, err := core.Create(c, fsys, "z.nc", nctype.Clobber, nil)
			if err != nil {
				return err
			}
			z, _ := d.DefDim("Z", 32)
			y, _ := d.DefDim("Y", 32)
			x, _ := d.DefDim("X", 32)
			if _, err := d.DefVar("tt", nctype.Float, []int{z, y, x}); err != nil {
				return err
			}
			if err := d.EndDef(); err != nil {
				return err
			}
			if end := lastWriteEnd(rec.Spans()); c.Rank() == 0 && end <= c.Clock() {
				return fmt.Errorf("EndDef returned at %g s, after its header writes ended at %g s: nothing was in flight", c.Clock(), end)
			}
			if err := zeroClocks(c, fsys, d); err != nil {
				return err
			}
			if err := d.Close(); err != nil {
				return err
			}
			for _, s := range rec.Spans() {
				if s.Phase == span.Drain {
					return fmt.Errorf("rank %d: Close drained %d bytes from %g s to %g s, written before the phase", c.Rank(), s.Bytes, s.Start, s.End)
				}
			}
			return nil
		})
		if err != nil {
			t.Errorf("%d ranks: %v", nprocs, err)
		}
	}
}
