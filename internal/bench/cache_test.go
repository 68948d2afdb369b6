package bench

import (
	"bytes"
	"testing"

	"pnetcdf/internal/core"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/pfs"
	"pnetcdf/internal/span"
)

// cacheRun is what one run of the many-round Figure 6 shape left behind:
// the file, the summed counters, the makespan, every rank's spans and, when
// it read the array back, what every rank read and the read's makespan.
type cacheRun struct {
	img      []byte
	counters map[string]int64
	makespan float64
	spans    []span.Span
	got      [][]float32 // by rank
	readSpan float64
}

// fig6XRanks and fig6XDims are the many-round Figure 6 shape the benchmark's
// fig6_x_multiround workload runs: an X partition of 128-byte runs,
// cb_buffer_size=65536, cb_nodes=2, Blue Horizon's 256 KiB stripes; here 32
// rounds per aggregator.
const fig6XRanks = 8

var fig6XDims = [3]int64{64, 64, 256} // 4 MiB of float32

// fig6XRun writes the many-round shape on Blue Horizon with a client cache
// of cache bytes and syncs it; with readBack every rank then reads its block
// back with one GetVaraAll.
func fig6XRun(t *testing.T, cache int64, readBack bool) cacheRun {
	t.Helper()
	const ranks = fig6XRanks
	dims := fig6XDims
	info := mpi.NewInfo().Set("cb_buffer_size", "65536").Set("cb_nodes", "2")
	mach := SDSCBlueHorizon()
	cfg := mach.FS
	cfg.ClientCache = cache
	fsys := pfs.New(cfg)
	out := cacheRun{got: make([][]float32, ranks)}
	pr, err := runProbed(ranks, mach.Net, true, true, func(c *mpi.Comm) error {
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
		var got []float32
		var readSpan float64
		if readBack {
			got = make([]float32, len(buf))
			if err := d.GetVaraAll(v, start[:], count[:], got); err != nil {
				return err
			}
			readSpan = c.AllreduceF64([]float64{c.Clock()}, mpi.OpMax)[0] - end
		}
		out.got[c.Rank()] = got
		if c.Rank() == 0 {
			out.makespan, out.readSpan = end-t0, readSpan
		}
		return d.Close()
	})
	if err != nil {
		t.Fatalf("cache %d: %v", cache, err)
	}
	out.counters = pr.summary().KeyCounters()
	out.spans, _ = pr.spans()
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

// TestClientCacheMovesOnlyTheClock: the client cache decides only when a
// rank's clock takes a write's end. The benchmark's many-round Figure 6
// shape (fig6XRun) is written with a cache of half a round, of one round,
// and of the machine's default. The three files are byte-identical, and the
// file system saw the same requests: write calls, extents, bytes, RMW
// blocks, seek and transfer time. A larger cache never lengthens the
// makespan. At half a round every data write is larger than the cache and
// is written through: each agg_write span ends at or past its request's end,
// and the only overlap is the header's, whose small writes go behind
// whatever the cache: io_overlap_ns is at most their time in flight. At the
// default some data writes are written behind.
func TestClientCacheMovesOnlyTheClock(t *testing.T) {
	const ranks = fig6XRanks
	mach := SDSCBlueHorizon()
	run := func(cache int64) cacheRun { return fig6XRun(t, cache, false) }
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
	// rawInFlight sums the time in flight, in ns, of the pfs_write requests
	// no agg_write follows on their rank: the header commit's.
	rawInFlight := func(spans []span.Span) (ns int64) {
		for i, s := range spans {
			if s.Phase != span.PFSWrite {
				continue
			}
			if next := i + 1; next < len(spans) && spans[next].Rank == s.Rank && spans[next].Phase == span.AggWrite {
				continue
			}
			ns += int64(s.Dur() * 1e9)
		}
		return ns
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
	if n := behind(through.spans); n > 0 {
		t.Errorf("half a round: %d data writes written behind; every one is larger than the cache", n)
	}
	if got, raw := through.counters["io_overlap_ns"], rawInFlight(through.spans); got > raw {
		t.Errorf("half a round: %d ns overlapped, more than the header writes' %d ns in flight: a data round overlapped",
			got, raw)
	}
	if behind(def.spans) == 0 {
		t.Error("default cache: no write written behind")
	}
	t.Logf("makespan %.4f s (half a round), %.4f s (one round), %.4f s (default)",
		through.makespan, oneRound.makespan, def.makespan)
}

// TestReadAheadMovesOnlyTheClock: how many read rounds an aggregator keeps
// in flight decides only when a rank's clock takes a read's end. The same
// shape is written and read back with a client cache of two rounds, of
// four, and of the machine's default, which keep 2, 4 and 12 (one per I/O
// server) of the read's 32 rounds in flight. Every rank reads back exactly
// what it wrote, the files are byte-identical, and every run sees the same
// pfs requests — read calls,
// extents, bytes, seek and transfer time — and the same MPI collectives,
// messages and bytes. The read's makespan does not rise as more rounds are
// in flight, and is shorter at 12 than at 2.
func TestReadAheadMovesOnlyTheClock(t *testing.T) {
	const round = 64 << 10
	fs := SDSCBlueHorizon().FS
	depths := []int64{2, 4, 12}
	caches := []int64{2 * round, 4 * round, fs.ClientCache}
	runs := make([]cacheRun, len(caches))
	for i, cache := range caches {
		// The depth rule (mpiio.readDepth), restated: one round per server,
		// as many as the cache holds, at least two, at most the rounds.
		if d := min(32, max(2, min(int64(fs.NumServers), cache/round))); d != depths[i] {
			t.Fatalf("a cache of %d bytes keeps %d rounds in flight, want %d", cache, d, depths[i])
		}
		runs[i] = fig6XRun(t, cache, true)
	}
	if got := runs[0].counters["io_two_phase_rounds"]; got != fig6XRanks*2*32 {
		t.Fatalf("%d two-phase rounds over all ranks, want %d: the shape is not the many-round one", got, fig6XRanks*2*32)
	}
	keys := []string{"pfs_read_calls", "pfs_read_extents", "pfs_bytes_read", "pfs_seek_time_ns",
		"pfs_transfer_time_ns", "mpi_collectives", "mpi_msgs_sent", "mpi_bytes_sent", "io_exchange_bytes"}
	for i, r := range runs {
		for rank, got := range r.got {
			start, count := Decompose(PartX, fig6XDims, fig6XRanks, rank)
			if n := count[0] * count[1] * count[2]; int64(len(got)) != n {
				t.Fatalf("depth %d: rank %d read %d values, want %d", depths[i], rank, len(got), n)
			}
			for j, v := range got {
				if v != float32(rank*len(got)+j) {
					t.Fatalf("depth %d: rank %d read %v at %d of its block at %v, wrote %v",
						depths[i], rank, v, j, start, float32(rank*len(got)+j))
				}
			}
		}
		if !bytes.Equal(r.img, runs[0].img) {
			t.Errorf("depth %d: the file differs from depth 2's", depths[i])
		}
		for _, k := range keys {
			if r.counters[k] != runs[0].counters[k] {
				t.Errorf("depth %d: %s = %d, at depth 2 %d", depths[i], k, r.counters[k], runs[0].counters[k])
			}
		}
		if i > 0 && r.readSpan > runs[i-1].readSpan {
			t.Errorf("depth %d: the read took %g s, at depth %d %g s: more rounds in flight took longer",
				depths[i], r.readSpan, depths[i-1], runs[i-1].readSpan)
		}
	}
	if last := runs[len(runs)-1]; last.readSpan >= runs[0].readSpan {
		t.Errorf("the read took %g s with 12 rounds in flight, %g s with 2: nothing was hidden", last.readSpan, runs[0].readSpan)
	}
	t.Logf("read makespan %.4f s (2 in flight), %.4f s (4), %.4f s (12)",
		runs[0].readSpan, runs[1].readSpan, runs[2].readSpan)
}
