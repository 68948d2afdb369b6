package bench

import (
	"bytes"
	"sync"
	"testing"

	"pnetcdf/internal/flash"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpiio/behindtest"
	"pnetcdf/internal/pfs"
	"pnetcdf/internal/span"
)

// TestFlashPipelineAcceptance is the acceptance check for the round loop on
// an 8-rank FLASH checkpoint: with a staging buffer smaller than the
// aggregator file domains every collective runs several rounds, and that run
// must (a) write a file byte-identical to the default-hint run, whose
// collectives take one round each — how rounds are scheduled is not visible in
// the file — and (b) overlap: it reports nonzero io_pipelined_rounds and
// io_overlap_ns. The one-round run pipelines no rounds, but its aggregator
// writes are written behind, so they overlap the collectives that follow
// (nonzero io_overlap_ns). Both runs keep the write-behind contract
// (behindtest.Check), with each rank's clock taken when the writer has
// closed the file.
func TestFlashPipelineAcceptance(t *testing.T) {
	cfg := flash.Default8()
	fsCfg := pfs.DefaultConfig()
	run := func(name string, info *mpi.Info, cbbuf int64) ([]byte, map[string]int64) {
		t.Helper()
		fsys := pfs.New(fsCfg)
		var counters map[string]int64
		var mu sync.Mutex
		var spans []span.Span
		p := behindtest.Params{NetLatency: fsCfg.NetLatency, ClientBW: fsCfg.ClientBW,
			CBBuffer: cbbuf, IndWrBuffer: 4 << 20, Drained: map[int]float64{}}
		err := mpi.Run(8, mpi.DefaultNet(), func(c *mpi.Comm) error {
			c.Proc().SetStats(iostat.New())
			rec := span.NewRecorder(c.Rank(), c.Proc().Clock)
			c.Proc().SetSpans(rec)
			if _, err := flash.WriteCheckpointPnetCDF(c, fsys, "f.nc", cfg, info); err != nil {
				return err
			}
			mu.Lock()
			spans = append(spans, rec.Spans()...)
			p.Drained[c.Rank()] = c.Clock()
			mu.Unlock()
			if s := iostat.Reduce(c, c.Proc().Stats()); s != nil {
				counters = s.KeyCounters()
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if data, _ := behindtest.Exercised(spans); data == 0 {
			t.Fatalf("%s: no data writes traced", name)
		}
		for _, e := range behindtest.Check(spans, p) {
			t.Errorf("%s: %s", name, e)
		}
		pf, _, err := fsys.Open("f.nc", 0)
		if err != nil {
			t.Fatalf("%s: reopen: %v", name, err)
		}
		img := make([]byte, pf.Size())
		if _, err := pf.ReadAt(0, img, 0); err != nil {
			t.Fatalf("%s: raw read: %v", name, err)
		}
		return img, counters
	}

	oneImg, oneStats := run("default hints", nil, 16<<20)
	manyImg, manyStats := run("cb_buffer_size=65536", mpi.NewInfo().Set("cb_buffer_size", "65536"), 65536)

	if !bytes.Equal(oneImg, manyImg) {
		t.Fatalf("many-round checkpoint differs from the one-round one: %d vs %d bytes",
			len(manyImg), len(oneImg))
	}
	if manyStats["io_pipelined_rounds"] == 0 {
		t.Fatal("many-round run reports no io_pipelined_rounds")
	}
	if manyStats["io_overlap_ns"] == 0 {
		t.Fatal("many-round run reports no io_overlap_ns — nothing overlapped")
	}
	if oneStats["io_pipelined_rounds"] != 0 {
		t.Fatalf("one-round run reports %d pipelined rounds", oneStats["io_pipelined_rounds"])
	}
	if oneStats["io_overlap_ns"] == 0 {
		t.Fatal("one-round run reports no io_overlap_ns — no write was written behind")
	}
}
