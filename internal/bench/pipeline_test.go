package bench

import (
	"bytes"
	"testing"

	"pnetcdf/internal/flash"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/pfs"
)

// TestFlashPipelineAcceptance is the acceptance check for the round loop on
// an 8-rank FLASH checkpoint: with a staging buffer smaller than the
// aggregator file domains every collective runs several rounds, and that run
// must (a) write a file byte-identical to the default-hint run, whose
// collectives take one round each — how rounds are scheduled is not visible in
// the file — and (b) actually overlap: it reports nonzero io_pipelined_rounds
// and io_overlap_ns, the one-round run reports zero for both.
func TestFlashPipelineAcceptance(t *testing.T) {
	cfg := flash.Default8()
	run := func(name string, info *mpi.Info) ([]byte, map[string]int64) {
		t.Helper()
		fsys := pfs.New(pfs.DefaultConfig())
		var counters map[string]int64
		err := mpi.Run(8, mpi.DefaultNet(), func(c *mpi.Comm) error {
			c.Proc().SetStats(iostat.New())
			if _, err := flash.WriteCheckpointPnetCDF(c, fsys, "f.nc", cfg, info); err != nil {
				return err
			}
			if s := iostat.Reduce(c, c.Proc().Stats()); s != nil {
				counters = s.KeyCounters()
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
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

	oneImg, oneStats := run("default hints", nil)
	manyImg, manyStats := run("cb_buffer_size=65536", mpi.NewInfo().Set("cb_buffer_size", "65536"))

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
	if oneStats["io_pipelined_rounds"] != 0 || oneStats["io_overlap_ns"] != 0 {
		t.Fatalf("one-round run reports pipeline activity: rounds=%d overlap=%d",
			oneStats["io_pipelined_rounds"], oneStats["io_overlap_ns"])
	}
}
