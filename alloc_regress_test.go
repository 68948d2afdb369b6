package pnetcdf_test

// Allocation regression pin for the pooled collective round: exchange and
// round buffers come from internal/bufpool and the aggregator hands its
// assembled iovec straight to the PFS, so bytes allocated per collective
// write are dominated by fixed mpi/pfs machinery, not by
// rounds x cb_buffer_size copies. Before pooling this shape allocated over
// 100 MB/op; the pin catches any return to per-round buffer churn.

import (
	"fmt"
	"testing"

	"pnetcdf/internal/core"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpiio"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/pfs"
)

func collectiveWriteOnce(tb testing.TB) { collectiveWritePipeline(tb, "enable") }

func collectiveWritePipeline(tb testing.TB, pipeline string) {
	const ranks = 4
	const blockLen = 64 << 10
	const nBlocks = 4 // 256 KiB per rank
	fs := pfs.New(pfs.DefaultConfig())
	err := mpi.Run(ranks, mpi.DefaultNet(), func(c *mpi.Comm) error {
		info := mpi.NewInfo()
		info.Set("cb_buffer_size", "131072")
		info.Set("cb_pipeline", pipeline)
		f, err := mpiio.Open(c, fs, "alloc.nc", mpiio.ModeRdWr|mpiio.ModeCreate, info)
		if err != nil {
			return err
		}
		ft, err := mpitype.Vector(nBlocks, blockLen, ranks*blockLen, mpitype.Contig(1))
		if err != nil {
			return err
		}
		if err := f.SetView(int64(c.Rank())*blockLen, ft); err != nil {
			return err
		}
		buf := make([]byte, nBlocks*blockLen)
		for j := range buf {
			buf[j] = byte(c.Rank())
		}
		if err := f.WriteAtAll(0, buf); err != nil {
			return err
		}
		return f.Close()
	})
	if err != nil {
		tb.Fatal(err)
	}
}

// measureAllocs runs op once to warm the buffer pools, then benchmarks it.
func measureAllocs(tb testing.TB, op func(testing.TB)) testing.BenchmarkResult {
	op(tb)
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			op(b)
		}
	})
}

func TestAllocsCollectiveRound(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers under the race detector; the byte pin does not hold")
	}
	res := measureAllocs(t, collectiveWriteOnce)
	t.Logf("collective write: %d allocs/op, %d B/op", res.AllocsPerOp(), res.AllocedBytesPerOp())
	// The op includes a fresh pfs.New, file create, and 4-rank mpi.Run; the
	// budget covers that fixed machinery (chunk storage for 1 MiB of file
	// data, goroutine stacks: 2.1 MB measured) with headroom, but not one
	// more copy of the 1 MiB payload — which is what a copying Comm.send
	// costs (3.1 MB measured) — let alone per-round copies across the 8
	// rounds this shape produces.
	const budget = 2560 << 10
	if res.AllocedBytesPerOp() > budget {
		t.Errorf("collective write allocates %d B/op, want <= %d", res.AllocedBytesPerOp(), budget)
	}
	if res.AllocsPerOp() > 1000 {
		t.Errorf("collective write allocates %d objects/op, want <= 1000", res.AllocsPerOp())
	}
}

// TestAllocsPipelinedVsSerial pins the depth-2 pipeline's steady-state
// allocation cost against the serial loop's. The pipeline keeps TWO
// generations of round buffers alive, but both come from (and return to)
// the shared pools, so after warm-up its bytes/op and allocs/op must stay
// within a modest factor of serial — a leak of the in-flight generation
// (recycleRound skipped on some path) would show up here as unpooled
// per-round churn.
func TestAllocsPipelinedVsSerial(t *testing.T) {
	measure := func(pipeline string) testing.BenchmarkResult {
		return measureAllocs(t, func(tb testing.TB) { collectiveWritePipeline(tb, pipeline) })
	}
	serial := measure("disable")
	piped := measure("enable")
	t.Logf("serial:    %d allocs/op, %d B/op", serial.AllocsPerOp(), serial.AllocedBytesPerOp())
	t.Logf("pipelined: %d allocs/op, %d B/op", piped.AllocsPerOp(), piped.AllocedBytesPerOp())
	// Absolute pins (same fixed machinery as TestAllocsCollectiveRound).
	if piped.AllocedBytesPerOp() > 8<<20 {
		t.Errorf("pipelined write allocates %d B/op, want <= %d", piped.AllocedBytesPerOp(), 8<<20)
	}
	if piped.AllocsPerOp() > 2000 {
		t.Errorf("pipelined write allocates %d objects/op, want <= 2000", piped.AllocsPerOp())
	}
	// Relative pin: the second generation must reuse pooled memory, not
	// double the per-op footprint. 1.5x leaves room for the extra AsyncOp,
	// closures, and one extra warm generation per pool class.
	if sb := serial.AllocedBytesPerOp(); sb > 0 && float64(piped.AllocedBytesPerOp()) > 1.5*float64(sb) {
		t.Errorf("pipelined B/op %d exceeds 1.5x serial %d — generation buffers not pooled",
			piped.AllocedBytesPerOp(), sb)
	}
}

// TestAllocsFlashRoundTrip pins what a checkpoint-shaped flexible put and get
// may allocate, relative to the payload they move: 8 ranks, FLASH block
// geometry (8x8x8 interior cells inside 4 guard cells, 80 blocks per rank),
// the guard-stripping memory type. Exchange messages move between ranks by
// ownership and come from the pools, and the typemap is read in place, so a
// write allocates the file's chunk store (the "disk": one payload) plus
// fixed machinery, and a read-back allocates next to nothing. One copy per
// message (the old Comm.send) would put a second payload on both.
func TestAllocsFlashRoundTrip(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers under the race detector; the byte pins do not hold")
	}
	const (
		ranks  = 8
		nb     = 8  // interior cells per block edge
		guard  = 4  // guard cells on each side
		blocks = 80 // per rank
		nvars  = 6
	)
	const edge = nb + 2*guard
	memtype, err := mpitype.Subarray(
		[]int64{blocks, edge, edge, edge}, []int64{blocks, nb, nb, nb}, []int64{0, guard, guard, guard}, 1)
	if err != nil {
		t.Fatal(err)
	}
	payload := int64(ranks*nvars) * memtype.Size() * 8
	bufs := make([][]float64, ranks) // one guarded buffer per rank, reused by every variable
	for r := range bufs {
		bufs[r] = make([]float64, blocks*edge*edge*edge)
		for i := range bufs[r] {
			bufs[r][i] = float64(r*1000003 + i)
		}
	}
	count := []int64{blocks, nb, nb, nb}
	names := make([]string, nvars)
	for v := range names {
		names[v] = fmt.Sprintf("unk%02d", v)
	}
	var fsys *pfs.FS
	write := func(tb testing.TB) {
		fsys = pfs.New(pfs.DefaultConfig())
		err := mpi.Run(ranks, mpi.DefaultNet(), func(c *mpi.Comm) error {
			d, err := core.Create(c, fsys, "ckpt.nc", nctype.Clobber, nil)
			if err != nil {
				return err
			}
			dims := make([]int, 4)
			for i, n := range []int64{ranks * blocks, nb, nb, nb} {
				if dims[i], err = d.DefDim(fmt.Sprintf("d%d", i), n); err != nil {
					return err
				}
			}
			for _, name := range names {
				if _, err := d.DefVar(name, nctype.Double, dims); err != nil {
					return err
				}
			}
			if err := d.EndDef(); err != nil {
				return err
			}
			start := []int64{int64(c.Rank() * blocks), 0, 0, 0}
			for v := range names {
				if err := d.PutVaraTypeAll(v, start, count, bufs[c.Rank()], memtype); err != nil {
					return err
				}
			}
			return d.Close()
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	read := func(tb testing.TB) {
		err := mpi.Run(ranks, mpi.DefaultNet(), func(c *mpi.Comm) error {
			d, err := core.Open(c, fsys, "ckpt.nc", nctype.NoWrite, nil)
			if err != nil {
				return err
			}
			start := []int64{int64(c.Rank() * blocks), 0, 0, 0}
			for _, name := range names {
				if err := d.GetVaraTypeAll(d.VarID(name), start, count, bufs[c.Rank()], memtype); err != nil {
					return err
				}
			}
			return d.Close()
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	w, r := measureAllocs(t, write), measureAllocs(t, read)
	t.Logf("payload %d B; write %d B/op (%.2fx), %d allocs/op; read-back %d B/op (%.3fx), %d allocs/op",
		payload, w.AllocedBytesPerOp(), float64(w.AllocedBytesPerOp())/float64(payload), w.AllocsPerOp(),
		r.AllocedBytesPerOp(), float64(r.AllocedBytesPerOp())/float64(payload), r.AllocsPerOp())
	if limit := payload + payload/10; w.AllocedBytesPerOp() > limit {
		t.Errorf("checkpoint write allocates %d B/op, want <= payload + 10%% = %d", w.AllocedBytesPerOp(), limit)
	}
	if limit := payload / 10; r.AllocedBytesPerOp() > limit {
		t.Errorf("checkpoint read-back allocates %d B/op, want <= 10%% of payload = %d", r.AllocedBytesPerOp(), limit)
	}
}
