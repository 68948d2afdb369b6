package bench

import (
	"bytes"
	"sync"
	"testing"

	"pnetcdf/internal/core"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/pfs"
	"pnetcdf/internal/span"
)

// cacheRun is what one write of TestClientCacheMovesOnlyTheClock left
// behind: the file, the summed counters, the makespan, and every rank's
// spans.
type cacheRun struct {
	img      []byte
	counters map[string]int64
	makespan float64
	spans    []span.Span
}

// TestClientCacheMovesOnlyTheClock: the client cache decides only when a
// rank's clock takes a write's end. The benchmark's many-round Figure 6
// shape — an X partition of 128-byte runs, cb_buffer_size=65536,
// cb_nodes=2, Blue Horizon's 256 KiB stripes; here 32 rounds per
// aggregator — is written with a cache of half a round, of one round, and
// of the machine's default. The three files are byte-identical, and the
// file system saw the same requests: write calls, extents, bytes, RMW
// blocks, seek and transfer time. A larger cache never lengthens the
// makespan. At half a round every write is larger than the cache and is
// written through: each agg_write span ends at or past its request's end
// and nothing overlaps; at the default some are written behind.
func TestClientCacheMovesOnlyTheClock(t *testing.T) {
	const ranks = 8
	dims := [3]int64{64, 64, 256} // 4 MiB of float32
	info := mpi.NewInfo().Set("cb_buffer_size", "65536").Set("cb_nodes", "2")
	mach := SDSCBlueHorizon()
	run := func(cache int64) cacheRun {
		t.Helper()
		cfg := mach.FS
		cfg.ClientCache = cache
		fsys := pfs.New(cfg)
		var out cacheRun
		var mu sync.Mutex
		err := mpi.Run(ranks, mach.Net, func(c *mpi.Comm) error {
			c.Proc().SetStats(iostat.New())
			rec := span.NewRecorder(c.Rank(), c.Proc().Clock)
			c.Proc().SetSpans(rec)
			d, err := core.Create(c, fsys, "x.nc", nctype.Clobber, info)
			if err != nil {
				return err
			}
			z, _ := d.DefDim("Z", dims[0])
			y, _ := d.DefDim("Y", dims[1])
			x, _ := d.DefDim("X", dims[2])
			v, err := d.DefVar("tt", nctype.Float, []int{z, y, x})
			if err != nil {
				return err
			}
			if err := d.EndDef(); err != nil {
				return err
			}
			start, count := Decompose(PartX, dims, ranks, c.Rank())
			buf := make([]float32, count[0]*count[1]*count[2])
			for i := range buf {
				buf[i] = float32(c.Rank()*len(buf) + i)
			}
			t0 := c.Clock()
			if err := d.PutVaraAll(v, start[:], count[:], buf); err != nil {
				return err
			}
			if err := d.Sync(); err != nil {
				return err
			}
			end := c.AllreduceF64([]float64{c.Clock()}, mpi.OpMax)[0]
			if err := d.Close(); err != nil {
				return err
			}
			sum := iostat.Reduce(c, c.Proc().Stats())
			mu.Lock()
			defer mu.Unlock()
			out.spans = append(out.spans, rec.Spans()...)
			if sum != nil {
				out.counters, out.makespan = sum.KeyCounters(), end-t0
			}
			return nil
		})
		if err != nil {
			t.Fatalf("cache %d: %v", cache, err)
		}
		pf, _, err := fsys.Open("x.nc", 0)
		if err != nil {
			t.Fatalf("cache %d: reopen: %v", cache, err)
		}
		out.img = make([]byte, pf.Size())
		if _, err := pf.ReadAt(0, out.img, 0); err != nil {
			t.Fatalf("cache %d: raw read: %v", cache, err)
		}
		return out
	}
	// behind counts the agg_write spans that end before their request
	// does: the writes written behind.
	behind := func(spans []span.Span) (n int) {
		var req span.Span
		for _, s := range spans {
			switch s.Phase {
			case span.PFSWrite:
				req = s
			case span.AggWrite:
				if s.End < req.End {
					n++
				}
			}
		}
		return n
	}

	through, oneRound, def := run(32<<10), run(64<<10), run(mach.FS.ClientCache)
	if got := def.counters["io_two_phase_rounds"]; got != ranks*32 {
		t.Fatalf("%d two-phase rounds over all ranks, want %d: the shape is not the many-round one", got, ranks*32)
	}
	keys := []string{"pfs_write_calls", "pfs_write_extents", "pfs_bytes_written",
		"pfs_rmw_blocks", "pfs_rmw_bytes", "pfs_seek_time_ns", "pfs_transfer_time_ns"}
	for _, r := range []struct {
		name string
		cacheRun
	}{{"half a round", through}, {"one round", oneRound}} {
		if !bytes.Equal(r.img, def.img) {
			t.Errorf("%s: the file differs from the default cache's", r.name)
		}
		for _, k := range keys {
			if r.counters[k] != def.counters[k] {
				t.Errorf("%s: %s = %d, the default cache's %d", r.name, k, r.counters[k], def.counters[k])
			}
		}
	}
	if def.makespan > oneRound.makespan || oneRound.makespan > through.makespan {
		t.Errorf("makespans %g (default), %g (one round), %g (half a round): a larger cache took longer",
			def.makespan, oneRound.makespan, through.makespan)
	}
	if n := behind(through.spans); n > 0 || through.counters["io_overlap_ns"] != 0 {
		t.Errorf("half a round: %d writes written behind, %d ns overlapped; every write is larger than the cache",
			n, through.counters["io_overlap_ns"])
	}
	if behind(def.spans) == 0 {
		t.Error("default cache: no write written behind")
	}
	t.Logf("makespan %.4f s (half a round), %.4f s (one round), %.4f s (default)",
		through.makespan, oneRound.makespan, def.makespan)
}
