package pnetcdf_test

// Allocation regression pin for the pooled collective round: exchange and
// round buffers come from internal/bufpool and the aggregator hands its
// assembled iovec straight to the PFS, so bytes allocated per collective
// write are dominated by fixed mpi/pfs machinery, not by
// rounds x cb_buffer_size copies. Before pooling this shape allocated over
// 100 MB/op; the pin catches any return to per-round buffer churn.

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"pnetcdf/internal/cdf"
	"pnetcdf/internal/core"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpiio"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
	"pnetcdf/internal/pfs"
)

func collectiveWriteOnce(tb testing.TB) {
	const ranks = 4
	const blockLen = 64 << 10
	const nBlocks = 4 // 256 KiB per rank
	fs := pfs.New(pfs.BlueHorizon())
	err := mpi.Run(ranks, mpi.DefaultNet(), func(c *mpi.Comm) error {
		info := mpi.NewInfo()
		info.Set("cb_buffer_size", "131072")
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
	// 322 objects measured (403 before the aggregator's round became a merge
	// over per-collective scratch): the fixed machinery again, with headroom.
	if res.AllocsPerOp() > 400 {
		t.Errorf("collective write allocates %d objects/op, want <= 400", res.AllocsPerOp())
	}
}

// roundsAllocs runs one 4-rank collective over an interleaved view of 128-byte
// blocks (2064 per rank, two aggregators) with the given cb_buffer_size and
// returns the objects and bytes all ranks together allocated inside the
// WriteAtAll or ReadAtAll call alone, plus the rounds it took. The warm-up
// and the measured call run with the collector paused: a collection empties
// the buffer pools' per-processor caches, and where one lands depends on the
// host's load, so refilling them put 0 to 3 objects of noise into a window.
func roundsAllocs(tb testing.TB, read bool, cbBuffer int) (objs, bytes, rounds int64) {
	const ranks, blockLen, nBlocks = 4, 128, 2064
	cfg := pfs.BlueHorizon()
	cfg.StripeSize = 4096 // file domains of exactly 129 x 4096 bytes
	fs := pfs.New(cfg)
	err := mpi.Run(ranks, mpi.DefaultNet(), func(c *mpi.Comm) error {
		st := iostat.New()
		c.Proc().SetStats(st)
		info := mpi.NewInfo().Set("cb_nodes", "2").Set("cb_buffer_size", fmt.Sprint(cbBuffer))
		f, err := mpiio.Open(c, fs, "rounds.nc", mpiio.ModeRdWr|mpiio.ModeCreate, info)
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
		op := f.WriteAtAll
		if read {
			if err := f.WriteAtAll(0, buf); err != nil {
				return err
			}
			op = f.ReadAtAll
		}
		if c.Rank() == 0 {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
		}
		c.Barrier()
		if err := op(0, buf); err != nil { // warm the pools and the chunk store
			return err
		}
		r0 := st.Get(iostat.IOTwoPhaseRounds)
		var before, after runtime.MemStats
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		c.Barrier()
		if err := op(0, buf); err != nil {
			return err
		}
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
			objs, bytes = int64(after.Mallocs-before.Mallocs), int64(after.TotalAlloc-before.TotalAlloc)
			rounds = st.Get(iostat.IOTwoPhaseRounds) - r0
		}
		return f.Close()
	})
	if err != nil {
		tb.Fatal(err)
	}
	return objs, bytes, rounds
}

// TestAllocsPerRoundIsConstant: the round loops keep their working memory in
// one per-collective value, so what a collective allocates beyond its first
// round is only what each further round's collectives, messages and file
// request cost inside mpi and pfs. A 129-round collective may allocate no
// more than the 1-round collective of the same shape plus perRound objects
// and perRoundBytes bytes for each extra round, all four ranks together —
// for write and read. An assembly that allocated per
// round (staging slices, a sort's scratch: 512 entries per aggregator per
// round here) would add tens of objects and ~25 KB a round.
func TestAllocsPerRoundIsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers under the race detector; the pins do not hold")
	}
	// Measured: −0.3 (write) and −0.2 (read) objects per extra round, i.e.
	// none: the round's one allreduce (the exchange's counts, which also carry
	// the verdict on an earlier round) folds in place over pooled wire
	// buffers in mpi, the request's cost-model tables live on the stack in
	// pfs, and mpiio reuses its per-collective scratch. While that allreduce
	// encoded and decoded on every tree edge and pfs made its tables per
	// request it was 24.7 and 24.8; with an asynchronous request handle 30.8
	// and 32.9, with a separate error agreement per round 49.8 and 51.8; the
	// sorting aggregator took 70-78 for a write round and 132-143 for a read
	// round. The 129-round collective allocates fewer bytes than the 1-round
	// one — its buffers are 129 times smaller — so the byte allowance only
	// has to catch per-round staging coming back.
	const (
		perRound      = 2
		perRoundBytes = 2048
	)
	for _, read := range []bool{false, true} {
		o1, b1, r1 := roundsAllocs(t, read, 1<<20)
		oN, bN, rN := roundsAllocs(t, read, 4096)
		if r1 != 1 || rN != 129 {
			t.Fatalf("read=%v: %d and %d rounds, want 1 and 129", read, r1, rN)
		}
		t.Logf("read=%v: 1 round %d objects %d B; 129 rounds %d objects %d B: %.1f objects, %.0f B per extra round",
			read, o1, b1, oN, bN, float64(oN-o1)/128, float64(bN-b1)/128)
		if limit := o1 + 128*perRound; oN > limit {
			t.Errorf("read=%v: 129 rounds allocate %d objects, want <= %d (1 round) + 128 x %d", read, oN, o1, perRound)
		}
		if limit := b1 + 128*perRoundBytes; bN > limit {
			t.Errorf("read=%v: 129 rounds allocate %d B, want <= %d (1 round) + 128 x %d", read, bN, b1, perRoundBytes)
		}
	}
}

// getRoundsAllocs reads a Float variable back with GetVaraAll on 4 ranks, each
// its own contiguous 256 KiB block, over 4 aggregators on 4096-byte stripes,
// and returns the objects all ranks together allocated inside the measured
// call, and its rounds. Every round's window lies in one rank's block, so the
// reply pieces the decoder takes straight into the caller's []float32 grow
// with the rounds: one per aggregator per round.
func getRoundsAllocs(tb testing.TB, cbBuffer int) (objs, rounds int64) {
	const ranks, rows, cols = 4, 2048, 32
	cfg := pfs.BlueHorizon()
	cfg.StripeSize = 4096
	fs := pfs.New(cfg)
	err := mpi.Run(ranks, mpi.DefaultNet(), func(c *mpi.Comm) error {
		st := iostat.New()
		c.Proc().SetStats(st)
		info := mpi.NewInfo().Set("cb_nodes", fmt.Sprint(ranks)).Set("cb_buffer_size", fmt.Sprint(cbBuffer))
		d, err := core.Create(c, fs, "getrounds.nc", nctype.Clobber, info)
		if err != nil {
			return err
		}
		r, _ := d.DefDim("r", ranks*rows)
		x, _ := d.DefDim("x", cols)
		v, err := d.DefVar("v", nctype.Float, []int{r, x})
		if err != nil {
			return err
		}
		if err := d.EndDef(); err != nil {
			return err
		}
		start, count := []int64{int64(c.Rank() * rows), 0}, []int64{rows, cols}
		buf := make([]float32, rows*cols)
		if err := d.PutVaraAll(v, start, count, buf); err != nil {
			return err
		}
		if err := d.GetVaraAll(v, start, count, buf); err != nil { // warm the pools and the view cache
			return err
		}
		r0 := st.Get(iostat.IOTwoPhaseRounds)
		var before, after runtime.MemStats
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		c.Barrier()
		if err := d.GetVaraAll(v, start, count, buf); err != nil {
			return err
		}
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
			objs = int64(after.Mallocs - before.Mallocs)
			rounds = st.Get(iostat.IOTwoPhaseRounds) - r0
		}
		return d.Close()
	})
	if err != nil {
		tb.Fatal(err)
	}
	return objs, rounds
}

// TestAllocsPerGetRoundIsConstant: a many-round GetVaraAll allocates nothing
// per round — the decoder that takes each reply piece straight into user
// memory is one value per dataset, so a closure or an interface box per
// piece (four a round here) shows as four objects a round. Measured: 0.3–0.4
// (4.1 with one allocation per piece).
func TestAllocsPerGetRoundIsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers under the race detector; the pins do not hold")
	}
	const perRound = 1
	o1, r1 := getRoundsAllocs(t, 1<<20)
	oN, rN := getRoundsAllocs(t, 4096)
	if r1 != 1 || rN < 60 {
		t.Fatalf("%d and %d rounds, want 1 and 60 or more", r1, rN)
	}
	t.Logf("1 round %d objects; %d rounds %d objects: %.1f objects per extra round",
		o1, rN, oN, float64(oN-o1)/float64(rN-1))
	if limit := o1 + (rN-1)*perRound; oN > limit {
		t.Errorf("%d rounds allocate %d objects, want <= %d (1 round) + %d x %d", rN, oN, o1, rN-1, perRound)
	}
}

// TestAllocsOneRoundCollective pins what a one-round collective of
// roundsAllocs' shape allocates, all four ranks together: 126 objects for
// the write and 182 for the read, measured once reductions stopped
// allocating (the classic serial round loop, before it was deleted, took
// 201 and 249; encoding reductions 193 and 249). FLASH's 27 one-round
// collectives per checkpoint must not start paying for the many-round
// machinery. Background allocation only ever adds (a single run reads up to
// 20 high), so the smallest of many runs is compared, with 4 to spare; with
// the collector running in the window, the smallest of 40 read 131 under a
// loaded go test ./..., against 128 alone.
func TestAllocsOneRoundCollective(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers under the race detector; the pins do not hold")
	}
	for _, pin := range []struct {
		read bool
		objs int64
	}{{false, 126 + 4}, {true, 182 + 4}} {
		best := int64(-1)
		for i := 0; i < 40; i++ {
			objs, _, rounds := roundsAllocs(t, pin.read, 1<<20)
			if rounds != 1 {
				t.Fatalf("read=%v: %d rounds, want 1", pin.read, rounds)
			}
			if best < 0 || objs < best {
				best = objs
			}
		}
		t.Logf("read=%v: one round allocates %d objects", pin.read, best)
		if best > pin.objs {
			t.Errorf("read=%v: a one-round collective allocates %d objects, want <= %d", pin.read, best, pin.objs)
		}
	}
}

// TestAllocsManyRoundWrite pins the steady-state allocation cost of a
// many-round collective write. The round loop's one table of received
// messages comes from (and returns to) the shared pools every round, so
// after warm-up its bytes/op and allocs/op stay at the fixed machinery's — a
// round whose messages are never recycled (recycleRound skipped on some
// path) would show up here as unpooled per-round churn.
func TestAllocsManyRoundWrite(t *testing.T) {
	res := measureAllocs(t, collectiveWriteOnce)
	t.Logf("many-round write: %d allocs/op, %d B/op", res.AllocsPerOp(), res.AllocedBytesPerOp())
	// Absolute pins (same fixed machinery as TestAllocsCollectiveRound), loose
	// enough to hold under the race detector, where sync.Pool drops buffers.
	if res.AllocedBytesPerOp() > 8<<20 {
		t.Errorf("many-round write allocates %d B/op, want <= %d", res.AllocedBytesPerOp(), 8<<20)
	}
	if res.AllocsPerOp() > 2000 {
		t.Errorf("many-round write allocates %d objects/op, want <= 2000", res.AllocsPerOp())
	}
}

// openAccessAllocs opens roundsAllocs' file afresh on 4 ranks, on a file
// system with the given client cache, and returns the objects all ranks
// together allocated in the open and one 32-round WriteAtAll — or, with
// read, ReadAtAll — plus the rounds it took and the io_overlap_ns recorded
// by the time it returned. An earlier open and write, and for a read three
// reads, warm the pools and the chunk store. The warm-up and the measured
// call run with the collector paused: a collection in between empties the
// buffer pools' per-processor caches, and refilling them costs objects in
// proportion to the pooled buffers in flight. A read's rounds in flight
// hold more of them than a write's, but a write paid too: with the
// collector running, a loaded go test ./... read 148 objects against 144.
func openAccessAllocs(tb testing.TB, cache int64, read bool) (objs, rounds, overlap int64) {
	const ranks, blockLen, nBlocks = 4, 128, 2064
	cfg := pfs.BlueHorizon()
	cfg.StripeSize = 4096
	cfg.ClientCache = cache
	fs := pfs.New(cfg)
	// Two file domains of 129 x 4096 bytes: 32 rounds of 16 512 bytes each.
	info := mpi.NewInfo().Set("cb_nodes", "2").Set("cb_buffer_size", "16512")
	overlaps := make([]int64, ranks) // each rank's io_overlap_ns when the call returned
	err := mpi.Run(ranks, mpi.DefaultNet(), func(c *mpi.Comm) error {
		st := iostat.New()
		c.Proc().SetStats(st)
		ft, err := mpitype.Vector(nBlocks, blockLen, ranks*blockLen, mpitype.Contig(1))
		if err != nil {
			return err
		}
		buf := make([]byte, nBlocks*blockLen)
		access := func(read bool) (*mpiio.File, error) {
			f, err := mpiio.Open(c, fs, "inflight.nc", mpiio.ModeRdWr|mpiio.ModeCreate, info)
			if err != nil {
				return nil, err
			}
			if err := f.SetView(int64(c.Rank())*blockLen, ft); err != nil {
				return nil, err
			}
			if read {
				return f, f.ReadAtAll(0, buf)
			}
			return f, f.WriteAtAll(0, buf)
		}
		warm := []bool{false}
		if read {
			warm = append(warm, true, true, true)
		}
		if c.Rank() == 0 {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
		}
		c.Barrier()
		for _, r := range warm {
			f, err := access(r)
			if err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		st.Reset()
		var before, after runtime.MemStats
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		c.Barrier()
		f, err := access(read)
		if err != nil {
			return err
		}
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
			objs = int64(after.Mallocs - before.Mallocs)
			rounds = st.Get(iostat.IOTwoPhaseRounds)
		}
		overlaps[c.Rank()] = st.Get(iostat.IOOverlapTimeNs)
		return f.Close()
	})
	if err != nil {
		tb.Fatal(err)
	}
	for _, ns := range overlaps {
		overlap += ns
	}
	return objs, rounds, overlap
}

// TestAllocsRoundsInFlight: a collective that leaves every round in flight
// costs no more objects than one whose client cache holds a single round —
// the write-behind FIFO is sized once per collective, not regrown by
// doubling on each fresh handle (1, 2, 4 … 32 entries: five more objects per
// aggregator, ten here). The 32-round write into the default 64 MiB cache
// settles no round before it returns (io_overlap_ns is still 0); the
// one-round cache settles every round but the last. Background allocation
// only adds (a run of the whole package reads up to 2 high), so the two
// caches are measured in alternation, with the collector paused
// (openAccessAllocs), and the smallest of many runs of each is compared,
// with three objects to spare.
func TestAllocsRoundsInFlight(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers under the race detector; the pins do not hold")
	}
	caches := [2]int64{16512, pfs.BlueHorizon().ClientCache} // one round; all 32
	least := [2]int64{-1, -1}
	for i := 0; i < 30; i++ {
		for j, cache := range caches {
			objs, rounds, overlap := openAccessAllocs(t, cache, false)
			if rounds != 32 {
				t.Fatalf("cache %d: %d rounds, want 32", cache, rounds)
			}
			if inFlight := j == 1; (overlap == 0) != inFlight {
				t.Fatalf("cache %d: io_overlap_ns %d when the write returned; every round in flight: %v",
					cache, overlap, inFlight)
			}
			if least[j] < 0 || objs < least[j] {
				least[j] = objs
			}
		}
	}
	one, all := least[0], least[1]
	t.Logf("open + 32-round write: %d objects with one round in flight, %d with all 32", one, all)
	if all > one+3 {
		t.Errorf("with every round in flight the open and write allocate %d objects, want <= %d (one round in flight) + 3", all, one)
	}
}

// TestAllocsReadRoundsInFlight: a read that keeps 12 of its 32 rounds in
// flight — one per I/O server, the default client cache's depth — costs no
// more objects than one that keeps 2: what a round holds until it is
// answered is a row of tables made once per collective, its replies come
// from the pools, and a requesting rank recomputes its clip of a round when
// the round is answered instead of storing it (a copy that gave each round
// in flight its own slice of request positions allocated 173 objects
// against 153 here). Measured like
// TestAllocsRoundsInFlight — in alternation, the smallest of many runs of
// each, with three objects to spare — but with the collector paused from
// the warm-up on (openAccessAllocs): the pooled coverage buffers of 12
// rounds in flight are 10 more per aggregator than 2 rounds', and after a
// collection refilling the pools' caches costs 4 to 6 objects more.
func TestAllocsReadRoundsInFlight(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers under the race detector; the pins do not hold")
	}
	caches := [2]int64{2 * 16512, pfs.BlueHorizon().ClientCache} // 2 rounds in flight; 12
	least := [2]int64{-1, -1}
	for i := 0; i < 30; i++ {
		for j, cache := range caches {
			objs, rounds, _ := openAccessAllocs(t, cache, true)
			if rounds != 32 {
				t.Fatalf("cache %d: %d rounds, want 32", cache, rounds)
			}
			if least[j] < 0 || objs < least[j] {
				least[j] = objs
			}
		}
	}
	two, twelve := least[0], least[1]
	t.Logf("open + 32-round read: %d objects with 2 rounds in flight, %d with 12", two, twelve)
	if twelve > two+3 {
		t.Errorf("with 12 rounds in flight the open and read allocate %d objects, want <= %d (2 in flight) + 3", twelve, two)
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
		fsys = pfs.New(pfs.BlueHorizon())
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

// metaHeader builds the header of the metadata-heavy shape — nvars
// one-dimensional variables with two attributes each, the benchmark's
// meta_defs — through the define rules the libraries call.
func metaHeader(tb testing.TB, nvars int) *cdf.Header {
	h := &cdf.Header{Version: 2}
	defs := newMetaDefs(nvars)
	if err := defs.define(headerDefiner{h}); err != nil {
		tb.Fatal(err)
	}
	if err := h.ComputeLayout(1); err != nil {
		tb.Fatal(err)
	}
	return h
}

// definer is the define surface both libraries (and, through headerDefiner,
// a bare header) offer.
type definer interface {
	DefDim(name string, size int64) (int, error)
	DefVar(name string, t nctype.Type, dimids []int) (int, error)
	PutAttr(varid int, name string, t nctype.Type, value any) error
}

// headerDefiner makes define calls on a header in define mode.
type headerDefiner struct{ *cdf.Header }

func (h headerDefiner) PutAttr(varid int, name string, t nctype.Type, value any) error {
	_, err := h.Header.PutAttr(varid, name, t, value, true)
	return err
}

// metaDefs holds the definitions of the metadata-heavy shape with every
// value boxed beforehand, so that what a pin counts is the library's alone.
type metaDefs struct {
	names         []string
	units, scales []any
}

func newMetaDefs(nvars int) metaDefs {
	m := metaDefs{names: make([]string, nvars), units: make([]any, nvars), scales: make([]any, nvars)}
	for i := range m.names {
		m.names[i] = fmt.Sprintf("variable_%05d", (i*7919)%nvars)
		m.units[i] = "m s-1 kg"
		m.scales[i] = []float64{float64(i)}
	}
	return m
}

func (m metaDefs) define(d definer) error {
	dim, err := d.DefDim("n", 16)
	if err != nil {
		return err
	}
	dimids := []int{dim}
	for i, name := range m.names {
		v, err := d.DefVar(name, nctype.Float, dimids)
		if err != nil {
			return err
		}
		if err := d.PutAttr(v, "units", nctype.Char, m.units[i]); err != nil {
			return err
		}
		if err := d.PutAttr(v, "scale_factor", nctype.Double, m.scales[i]); err != nil {
			return err
		}
	}
	return nil
}

// TestAllocsHeaderCodec pins what the metadata path allocates on a
// 4096-variable header, per call: Encode one buffer of exactly the encoded
// size; Decode a few dozen objects, whatever the variable count — dimension
// IDs, attribute lists, attribute values and names are cut from slabs the
// header owns (attribute names that repeat from variable to variable are
// shared), so what is left is the header, its two lists, the slabs and the
// name index; Validate and FindVar nothing.
func TestAllocsHeaderCodec(t *testing.T) {
	const nvars = 4096
	h := metaHeader(t, nvars)
	img := h.Encode()
	if got := testing.AllocsPerRun(10, func() { h.Encode() }); got != 1 {
		t.Errorf("Encode: %v allocations, want 1", got)
	}
	// Digest streams the same encoding through a 4 KiB buffer. Measured: 2
	// objects and 4 224 B, against Encode's one buffer of the whole image.
	if sum := h.Digest(); sum != sha256.Sum256(img) {
		t.Errorf("Digest is not the SHA-256 of the image")
	}
	digest := measureAllocs(t, func(testing.TB) { h.Digest() })
	t.Logf("Digest of %d variables: %d allocations, %d B", nvars, digest.AllocsPerOp(), digest.AllocedBytesPerOp())
	if digest.AllocsPerOp() > 8 || digest.AllocedBytesPerOp() > 8<<10 {
		t.Errorf("Digest: %d allocations and %d B, want <= 8 and <= 8 KiB (the image is %d B)",
			digest.AllocsPerOp(), digest.AllocedBytesPerOp(), len(img))
	}
	var dec *cdf.Header
	got := testing.AllocsPerRun(10, func() {
		var err error
		if dec, err = cdf.Decode(img); err != nil {
			t.Fatal(err)
		}
	})
	// Measured: 93 (8 240 while every variable took a name string and an
	// attribute list of its own).
	t.Logf("Decode of %d variables (%d bytes): %v allocations", nvars, len(img), got)
	if got > 128 {
		t.Errorf("Decode: %v allocations for %d variables, want <= 128", got, nvars)
	}
	for _, hdr := range []*cdf.Header{h, dec} {
		if got := testing.AllocsPerRun(10, func() {
			if err := hdr.Validate(); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("Validate: %v allocations, want 0", got)
		}
		if got := testing.AllocsPerRun(10, func() {
			for i := range hdr.Vars {
				if hdr.FindVar(hdr.Vars[i].Name) != i {
					t.Fatal("FindVar missed")
				}
			}
			if hdr.FindVar("absent") != -1 {
				t.Fatal("FindVar found a name no variable carries")
			}
		}); got != 0 {
			t.Errorf("FindVar: %v allocations, want 0", got)
		}
	}
	// Adding to the header allocates only when the list or the index grows.
	if got := testing.AllocsPerRun(100, func() { dec.RenameVar(7, "renamed", true); dec.RenameVar(7, "variable_x", true) }); got != 0 {
		t.Errorf("RenameVar: %v allocations, want 0", got)
	}
}

// TestAllocsDefine pins what defining the metadata-heavy shape allocates in
// each library — Create, then 4096 x (DefVar + 2 PutAttr) with the values
// boxed beforehand — and what Clone (Redef's copy of the old layout) of the
// header that leaves allocates. Dimension IDs, attribute lists and values are
// carved from the header's slabs and the variable list doubles, so what is
// left is a new slab every few hundred variables. Measured: 123
// objects in core (20 547 while every DefVar copied its IDs and every
// PutAttr made a value and regrew a list), 119 in netcdf; Clone 24 (it made
// four per variable).
func TestAllocsDefine(t *testing.T) {
	const nvars, tries = 4096, 5
	defs := newMetaDefs(nvars)
	check := func(lib string, objs uint64, hdr *cdf.Header) {
		t.Helper()
		t.Logf("%s: Create + %d x (DefVar + 2 PutAttr): %d allocations", lib, nvars, objs)
		if objs > 256 {
			t.Errorf("%s: defining %d variables allocates %d objects, want <= 256", lib, nvars, objs)
		}
		if len(hdr.Vars) != nvars {
			t.Fatalf("%s: %d variables defined, want %d", lib, len(hdr.Vars), nvars)
		}
		got := testing.AllocsPerRun(10, func() {
			if !hdr.Clone().Equal(hdr) {
				t.Fatal("Clone differs from its header")
			}
		})
		t.Logf("%s: Clone: %v allocations", lib, got)
		if got > 128 {
			t.Errorf("%s: Clone allocates %v objects, want <= 128", lib, got)
		}
	}

	best, last := uint64(math.MaxUint64), (*netcdf.Dataset)(nil)
	for try := 0; try < tries; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := netcdf.Create(&netcdf.MemStore{}, nctype.Bit64Offset)
		if err != nil {
			t.Fatal(err)
		}
		if err := defs.define(d); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		best, last = min(best, after.Mallocs-before.Mallocs), d
	}
	check("netcdf", best, last.Header())

	best = math.MaxUint64
	fsys := pfs.New(pfs.BlueHorizon())
	var hdr *cdf.Header
	err := mpi.Run(1, mpi.DefaultNet(), func(c *mpi.Comm) error {
		for try := 0; try < tries; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			d, err := core.Create(c, fsys, "defs.nc", nctype.Bit64Offset, nil)
			if err != nil {
				return err
			}
			if err := defs.define(d); err != nil {
				return err
			}
			runtime.ReadMemStats(&after)
			best, hdr = min(best, after.Mallocs-before.Mallocs), d.Header()
			if err := d.Close(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	check("core", best, hdr)
}

// TestAllocsNumRecsUpdate: a record-growing put rewrites the 4- or 8-byte
// numrecs field, not the header around it. On a 4096-variable record dataset
// (a header of ~200 KB) every such put used to encode the whole header.
func TestAllocsNumRecsUpdate(t *testing.T) {
	const nvars, puts = 4096, 32
	fsys := pfs.New(pfs.BlueHorizon())
	var perPut, hdrBytes int64
	err := mpi.Run(1, mpi.DefaultNet(), func(c *mpi.Comm) error {
		d, err := core.Create(c, fsys, "recs.nc", nctype.Bit64Offset, nil)
		if err != nil {
			return err
		}
		rec, _ := d.DefDim("time", 0)
		x, _ := d.DefDim("x", 2)
		for i := 0; i < nvars; i++ {
			if _, err := d.DefVar(fmt.Sprintf("variable_%05d", i), nctype.Float, []int{rec, x}); err != nil {
				return err
			}
		}
		if err := d.EndDef(); err != nil {
			return err
		}
		hdrBytes = d.Header().EncodedSize()
		row := []float32{1, 2}
		put := func(r int64) error { return d.PutVaraAll(0, []int64{r, 0}, []int64{1, 2}, row) }
		if err := put(0); err != nil { // warm the pools and the view cache
			return err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := int64(1); r <= puts; r++ {
			if err := put(r); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&after)
		perPut = int64(after.TotalAlloc-before.TotalAlloc) / puts
		if d.NumRecs() != puts+1 {
			return fmt.Errorf("NumRecs = %d, want %d", d.NumRecs(), puts+1)
		}
		return d.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("record-growing put: %d B/put next to a %d-byte header", perPut, hdrBytes)
	if perPut > hdrBytes/4 {
		t.Errorf("a record-growing put allocates %d B, want <= 1/4 of the %d-byte header it does not rewrite", perPut, hdrBytes)
	}
}

// The calls flexCallAllocs measures.
const (
	flexPut   = iota // a blocking flexible put
	flexGet          // a blocking flexible get
	flexBatch        // a queued 4-op batch: four IPutVara and a WaitAll, four IGetVara and a WaitAll
)

// flexCallAllocs measures what one call allocates in steady state, per rank:
// 8 ranks on one open dataset repeat the same FLASH-shaped call n and then 2n
// times between barriers, and the difference over n x ranks calls cancels
// everything that is not per call. The minimum over a few tries drops the
// runs in which a GC emptied the buffer pools. Each op of a batch takes two
// of the eight y-rows of every one of the rank's blocks, so the four ops'
// file extents interleave: every op has eight pieces in the fused request.
func flexCallAllocs(tb testing.TB, kind int) (objs, bytes float64) {
	const ranks, blocks, nb, guard, n, tries = 8, 8, 8, 4, 24, 5
	const edge = nb + 2*guard
	memtype, err := mpitype.Subarray(
		[]int64{blocks, edge, edge, edge}, []int64{blocks, nb, nb, nb}, []int64{0, guard, guard, guard}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	fsys := pfs.New(pfs.BlueHorizon())
	objs, bytes = math.MaxFloat64, math.MaxFloat64
	err = mpi.Run(ranks, mpi.DefaultNet(), func(c *mpi.Comm) error {
		d, err := core.Create(c, fsys, "percall.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		dims := make([]int, 4)
		for i, n := range []int64{ranks * blocks, nb, nb, nb} {
			if dims[i], err = d.DefDim(fmt.Sprintf("d%d", i), n); err != nil {
				return err
			}
		}
		v, err := d.DefVar("unk", nctype.Double, dims)
		if err != nil {
			return err
		}
		if err := d.EndDef(); err != nil {
			return err
		}
		buf := make([]float64, blocks*edge*edge*edge)
		start, count := []int64{int64(c.Rank() * blocks), 0, 0, 0}, []int64{blocks, nb, nb, nb}
		call := func() error { return d.PutVaraTypeAll(v, start, count, buf, memtype) }
		if err := call(); err != nil { // the file's chunk store, the pools, the view cache
			return err
		}
		switch kind {
		case flexGet:
			call = func() error { return d.GetVaraTypeAll(v, start, count, buf, memtype) }
		case flexBatch:
			const ops = 4
			var starts [ops][]int64
			var quarters [ops]any // boxed once: the pin counts the library, not the caller
			for k := range starts {
				starts[k] = []int64{int64(c.Rank() * blocks), int64(k * nb / ops), 0, 0}
				quarters[k] = make([]float64, blocks*nb*nb*nb/ops)
			}
			qcount := []int64{blocks, nb / ops, nb, nb}
			batch := func(write bool) error {
				for k := range starts {
					var err error
					if write {
						_, err = d.IPutVara(v, starts[k], qcount, quarters[k])
					} else {
						_, err = d.IGetVara(v, starts[k], qcount, quarters[k])
					}
					if err != nil {
						return err
					}
				}
				return d.WaitAll()
			}
			call = func() error {
				if err := batch(true); err != nil {
					return err
				}
				return batch(false)
			}
		}
		segment := func(calls int) (o, b int64, err error) {
			var before, after runtime.MemStats
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			c.Barrier()
			for i := 0; i < calls && err == nil; i++ {
				err = call()
			}
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&after)
			}
			return int64(after.Mallocs - before.Mallocs), int64(after.TotalAlloc - before.TotalAlloc), err
		}
		for try := 0; try <= tries; try++ { // try 0 warms
			o1, b1, err := segment(n)
			if err != nil {
				return err
			}
			o2, b2, err := segment(2 * n)
			if err != nil {
				return err
			}
			if c.Rank() == 0 && try > 0 {
				objs = min(objs, float64(o2-o1)/(n*ranks))
				bytes = min(bytes, float64(b2-b1)/(n*ranks))
			}
		}
		return d.Close()
	})
	if err != nil {
		tb.Fatal(err)
	}
	return objs, bytes
}

// TestAllocsPerBlockingCall pins the per-call cost of the blocking flexible
// put and get. The benchmark's 3% allocation bound is about 95 B and 0.7
// objects per call on flash_ckpt_r (0.60 MB and 4 424 objects per op over
// its 24 gets on 8 ranks: 3.1 KB and 23 objects per call), which
// TestAllocsFlashRoundTrip's payload-relative limits cannot see: an op
// record on the heap, a split into write and read lists, a view-cache key
// or a reduction buffer per call would each cost more than that. The object
// pins are the measurement plus about 10% (12.50 and 14.50 objects, the
// highest of six runs, once reductions folded in place and the view cache
// looked its key up from the stack; 36.38 and 37.38 before); the byte pins
// are still the highest of six measurements at the parent of the one-path
// change (DESIGN.md §16). The queued batch's pins are the lowest of five
// measurements from when a multi-op completion still staged every op in a
// pooled buffer and a read gathered each op's windows out of the fused one
// (about 95 objects and 12 KB since the merged source and sink).
func TestAllocsPerBlockingCall(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers under the race detector; the byte pins do not hold")
	}
	for _, tc := range []struct {
		name             string
		kind             int
		maxObjs, maxByte float64
	}{
		{"put", flexPut, 13.75, 2064},
		{"get", flexGet, 15.95, 2984},
		{"queued 4-op batch", flexBatch, 116.68, 45159},
	} {
		objs, bytes := flexCallAllocs(t, tc.kind)
		t.Logf("%s: %.2f objects, %.0f B per call per rank", tc.name, objs, bytes)
		if objs > tc.maxObjs || bytes > tc.maxByte {
			t.Errorf("%s allocates %.2f objects and %.0f B per call, want <= %.2f and <= %.0f",
				tc.name, objs, bytes, tc.maxObjs, tc.maxByte)
		}
	}
}

// pattern is the Source and Sink of a request whose bytes live nowhere:
// byte pos of rank r's request is byte(pos/7 + r). Drain counts the bytes
// that differ, so a read checks itself without a request-sized buffer.
type pattern struct {
	rank int64
	bad  int64
}

func (p *pattern) Fill(dst []byte, pos int64) {
	for i := range dst {
		dst[i] = byte((pos+int64(i))/7 + p.rank)
	}
}

func (p *pattern) Drain(pos int64, src []byte) {
	for i, b := range src {
		if b != byte((pos+int64(i))/7+p.rank) {
			p.bad++
		}
	}
}

// TestAllocsIndependentSieve pins data sieving's staging to its windows: a
// 4-rank strided independent write, and the read of it, of 32 MiB per rank
// go through 4 MiB windows that fill from the request's Source and drain
// into its Sink, so a warm call allocates next to nothing. Staging the whole
// request would cost 32 MiB per rank (128 MiB per call); the 8 MiB bound
// is two ranks' windows, lost to the pools at a collection.
func TestAllocsIndependentSieve(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers under the race detector; the byte pin does not hold")
	}
	const ranks, blockLen, per, tries = 4, 4 << 10, 32 << 20, 2
	const bound = 8 << 20
	fsys := pfs.New(pfs.BlueHorizon())
	least := [2]uint64{math.MaxUint64, math.MaxUint64} // write, read
	err := mpi.Run(ranks, mpi.DefaultNet(), func(c *mpi.Comm) error {
		f, err := mpiio.Open(c, fsys, "sieve.nc", mpiio.ModeRdWr|mpiio.ModeCreate, nil)
		if err != nil {
			return err
		}
		ft, err := mpitype.Vector(per/blockLen, blockLen, ranks*blockLen, mpitype.Contig(1))
		if err != nil {
			return err
		}
		if err := f.SetView(int64(c.Rank())*blockLen, ft); err != nil {
			return err
		}
		p := &pattern{rank: int64(c.Rank())}
		calls := [2]func() error{
			func() error { return f.WriteAtFrom(0, per, p) },
			func() error { return f.ReadAtInto(0, per, p) },
		}
		for try := 0; try <= tries; try++ { // try 0 warms
			for k, call := range calls {
				var before, after runtime.MemStats
				c.Barrier()
				if c.Rank() == 0 {
					runtime.ReadMemStats(&before)
				}
				c.Barrier()
				if err := call(); err != nil {
					return err
				}
				c.Barrier()
				if c.Rank() == 0 && try > 0 {
					runtime.ReadMemStats(&after)
					least[k] = min(least[k], after.TotalAlloc-before.TotalAlloc)
				}
			}
		}
		if p.bad != 0 {
			return fmt.Errorf("rank %d: %d bytes read back wrong", c.Rank(), p.bad)
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, name := range []string{"write", "read"} {
		t.Logf("sieved %s: %d B per call over %d ranks", name, least[k], ranks)
		if least[k] > bound {
			t.Errorf("a warm sieved %s allocates %d B per call over %d ranks, want <= %d", name, least[k], ranks, bound)
		}
	}
}
