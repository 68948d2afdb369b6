package bench

import (
	"bytes"
	"sync"
	"testing"

	"pnetcdf/internal/flash"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpiio/behindtest"
	"pnetcdf/internal/pfs"
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
// closed the file. Each run's client cache holds one of its rounds, so an
// aggregator settles its oldest write before it issues the next.
func TestFlashPipelineAcceptance(t *testing.T) {
	cfg := flash.Default8()
	run := func(name string, info *mpi.Info, cache int64) ([]byte, map[string]int64) {
		t.Helper()
		fsCfg := pfs.BlueHorizon()
		fsCfg.ClientCache = cache
		fsys := pfs.New(fsCfg)
		var mu sync.Mutex
		p := behindtest.Params{NetLatency: fsCfg.NetLatency, ClientBW: fsCfg.ClientBW,
			Cache: cache, Drained: map[int]float64{}}
		pr, err := runProbed(8, mpi.DefaultNet(), true, true, func(c *mpi.Comm) error {
			if _, err := flash.WriteCheckpointPnetCDF(c, fsys, "f.nc", cfg, info); err != nil {
				return err
			}
			mu.Lock()
			p.Drained[c.Rank()] = c.Clock()
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		spans, _ := pr.spans()
		counters := pr.summary().KeyCounters()
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
