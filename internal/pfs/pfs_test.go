package pfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"pnetcdf/internal/iostat"
)

func testFS() *FS {
	cfg := DefaultConfig()
	return New(cfg)
}

func TestCreateOpenRemove(t *testing.T) {
	fs := testFS()
	f, t1 := fs.Create("a.nc", 0)
	if t1 <= 0 {
		t.Fatal("Create charged no time")
	}
	if f.Name() != "a.nc" || f.Size() != 0 {
		t.Fatalf("fresh file: name=%q size=%d", f.Name(), f.Size())
	}
	if !fs.Exists("a.nc") || fs.Exists("b.nc") {
		t.Fatal("Exists wrong")
	}
	if _, _, err := fs.Open("missing", 0); err == nil {
		t.Fatal("Open missing succeeded")
	}
	g, _, err := fs.Open("a.nc", t1)
	if err != nil {
		t.Fatal(err)
	}
	// Handles share data.
	f.WriteAt(0, []byte("xyz"), 0)
	buf := make([]byte, 3)
	g.ReadAt(0, buf, 0)
	if string(buf) != "xyz" {
		t.Fatalf("shared data: %q", buf)
	}
	if err := fs.Remove("a.nc"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("a.nc"); err == nil {
		t.Fatal("double remove succeeded")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	fs := testFS()
	f, _ := fs.Create("f", 0)
	data := make([]byte, 3*chunkSize+123) // spans chunks with odd tail
	for i := range data {
		data[i] = byte(i * 7)
	}
	f.WriteAt(0, data, 41) // unaligned offset
	got := make([]byte, len(data))
	f.ReadAt(0, got, 41)
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch across chunk boundaries")
	}
	if f.Size() != 41+int64(len(data)) {
		t.Fatalf("size = %d", f.Size())
	}
	// Holes and beyond-EOF reads are zero.
	head := make([]byte, 41)
	f.ReadAt(0, head, 0)
	for _, b := range head {
		if b != 0 {
			t.Fatal("hole not zero")
		}
	}
	tail := make([]byte, 10)
	f.ReadAt(0, tail, f.Size()+100)
	for _, b := range tail {
		if b != 0 {
			t.Fatal("beyond-EOF not zero")
		}
	}
}

func TestVectoredIO(t *testing.T) {
	fs := testFS()
	f, _ := fs.Create("f", 0)
	segs := []Segment{{Off: 10, Len: 4}, {Off: 100, Len: 6}, {Off: 1 << 20, Len: 5}}
	src := []byte("aaaabbbbbbccccc")
	f.WriteVec(0, segs, [][]byte{src})
	dst := make([]byte, len(src))
	f.ReadV(0, segs, dst)
	if !bytes.Equal(dst, src) {
		t.Fatalf("vectored round trip: %q", dst)
	}
	one := make([]byte, 6)
	f.ReadAt(0, one, 100)
	if string(one) != "bbbbbb" {
		t.Fatalf("middle segment: %q", one)
	}
}

func TestTruncate(t *testing.T) {
	fs := testFS()
	f, _ := fs.Create("f", 0)
	data := bytes.Repeat([]byte{0xFF}, 2*chunkSize)
	f.WriteAt(0, data, 0)
	f.Truncate(100)
	if f.Size() != 100 {
		t.Fatalf("size after truncate = %d", f.Size())
	}
	f.Truncate(2 * chunkSize)
	got := make([]byte, 2*chunkSize)
	f.ReadAt(0, got, 0)
	for i := 0; i < 100; i++ {
		if got[i] != 0xFF {
			t.Fatal("truncate destroyed retained data")
		}
	}
	for i := 100; i < len(got); i++ {
		if got[i] != 0 {
			t.Fatalf("byte %d not zeroed after shrink+grow", i)
		}
	}
}

func TestTimeMonotonicAndSizeScaling(t *testing.T) {
	fs := testFS()
	f, t0 := fs.Create("f", 0)
	small := make([]byte, 4<<10)
	big := make([]byte, 16<<20)
	t1, _ := f.WriteAt(t0, small, 0)
	if t1 <= t0 {
		t.Fatal("write completion not after issue")
	}
	fs.ResetClock()
	ts, _ := f.WriteAt(0, small, 0) // duration of small write from idle
	fs.ResetClock()
	tb, _ := f.WriteAt(0, big, 0)
	if tb <= ts {
		t.Fatalf("16 MB write (%v) not slower than 4 KB (%v)", tb, ts)
	}
}

func TestAggregateBandwidthSaturates(t *testing.T) {
	// Total service time for N bytes spread over the servers cannot imply
	// more than NumServers * WriteBW of aggregate bandwidth.
	fs := testFS()
	f, _ := fs.Create("f", 0)
	nbytes := int64(256 << 20)
	done, _ := f.WriteAt(0, make([]byte, nbytes), 0)
	bw := float64(nbytes) / done
	if bw > fs.PeakWriteBW()*1.01 {
		t.Fatalf("write bandwidth %.0f exceeds peak %.0f", bw, fs.PeakWriteBW())
	}
	// And it should get reasonably close for one huge contiguous write
	// pipelined against the client link... unless the client link itself is
	// the bottleneck, which it is here by design (single writer).
	if bw > fs.Config().ClientBW*1.01 {
		t.Fatalf("single client exceeded its link: %.0f > %.0f", bw, fs.Config().ClientBW)
	}
}

func TestManyClientsBeatOneClient(t *testing.T) {
	// The core scaling effect of Figure 6: multiple concurrent writers
	// achieve higher aggregate bandwidth than one, up to the server pool.
	cfg := DefaultConfig()
	total := int64(64 << 20)

	oneFS := New(cfg)
	f1, _ := oneFS.Create("f", 0)
	oneDone, _ := f1.WriteAt(0, make([]byte, total), 0)

	nClients := 8
	manyFS := New(cfg)
	f2, _ := manyFS.Create("f", 0)
	share := total / int64(nClients)
	var wg sync.WaitGroup
	dones := make([]float64, nClients)
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			off := int64(c) * share
			dones[c], _ = f2.WriteAt(0, make([]byte, share), off)
		}(c)
	}
	wg.Wait()
	manyDone := 0.0
	for _, d := range dones {
		if d > manyDone {
			manyDone = d
		}
	}
	if manyDone >= oneDone {
		t.Fatalf("8 clients (%.3fs) not faster than 1 client (%.3fs)", manyDone, oneDone)
	}
}

func TestSeekPenaltyForDiscontiguity(t *testing.T) {
	// Many small scattered segments must cost far more than one contiguous
	// request of the same total size — the reason data sieving and two-phase
	// I/O exist.
	cfg := DefaultConfig()
	total := int64(8 << 20)

	fsA := New(cfg)
	fA, _ := fsA.Create("f", 0)
	contig, _ := fA.WriteAt(0, make([]byte, total), 0)

	fsB := New(cfg)
	fB, _ := fsB.Create("f", 0)
	const nseg = 2048
	segs := make([]Segment, nseg)
	segLen := total / nseg
	for i := range segs {
		segs[i] = Segment{Off: int64(i) * segLen * 3, Len: segLen} // strided
	}
	scattered, _ := fB.WriteVec(0, segs, [][]byte{make([]byte, total)})

	if scattered < 3*contig {
		t.Fatalf("scattered (%.4fs) not clearly slower than contiguous (%.4fs)", scattered, contig)
	}
}

func TestReadsFasterThanWrites(t *testing.T) {
	fs := testFS()
	f, _ := fs.Create("f", 0)
	n := int64(32 << 20)
	buf := make([]byte, n)
	wDone, _ := f.WriteAt(0, buf, 0)
	fs.ResetClock()
	rDone, _ := f.ReadV(0, []Segment{{Off: 0, Len: n}}, buf)
	if rDone >= wDone {
		t.Fatalf("read (%.3fs) not faster than write (%.3fs)", rDone, wDone)
	}
}

func TestMergeSegments(t *testing.T) {
	var got []Segment
	forEachMerged([]Segment{{Off: 10, Len: 5}, {Off: 15, Len: 5}, {Off: 30, Len: 2}, {Off: 0, Len: 4}, {Off: 31, Len: 10}},
		func(s Segment) { got = append(got, s) })
	want := []Segment{{Off: 0, Len: 4}, {Off: 10, Len: 10}, {Off: 30, Len: 11}}
	if len(got) != len(want) {
		t.Fatalf("merge = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merge = %v, want %v", got, want)
		}
	}
}

func TestCountCongruent(t *testing.T) {
	// Oracle by brute force.
	f := func(a8, span8, r8, m8 uint8) bool {
		a, span := int64(a8), int64(span8)
		m := int64(m8%16) + 1
		r := int64(r8) % m
		b := a + span
		var want int64
		for k := a; k <= b; k++ {
			if k%m == r {
				want++
			}
		}
		return countCongruent(a, b, r, m) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRandomReadAfterWrite(t *testing.T) {
	// Property: arbitrary interleaved writes then reads behave like a flat
	// byte array.
	fs := testFS()
	f, _ := fs.Create("f", 0)
	oracle := make([]byte, 1<<20)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		off := rng.Int63n(int64(len(oracle) - 4096))
		n := rng.Intn(4096) + 1
		if rng.Intn(2) == 0 {
			p := make([]byte, n)
			rng.Read(p)
			copy(oracle[off:], p)
			f.WriteAt(0, p, off)
		} else {
			got := make([]byte, n)
			f.ReadAt(0, got, off)
			if !bytes.Equal(got, oracle[off:off+int64(n)]) {
				t.Fatalf("iter %d: read mismatch at %d+%d", i, off, n)
			}
		}
	}
}

func TestDiscardModeTracksSizeOnly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Discard = true
	fs := New(cfg)
	f, _ := fs.Create("f", 0)
	done, _ := f.WriteAt(0, bytes.Repeat([]byte{1}, 1<<20), 0)
	if done <= 0 {
		t.Fatal("discard mode charged no time")
	}
	if f.Size() != 1<<20 {
		t.Fatalf("discard mode lost size: %d", f.Size())
	}
	got := make([]byte, 16)
	f.ReadAt(0, got, 0)
	for _, b := range got {
		if b != 0 {
			t.Fatal("discard mode retained data")
		}
	}
}

// TestChunkFillCases covers how writeAt makes a chunk: filled by one iovec
// piece (made by copying it, no zeroing pass), filled by several pieces,
// partly written, and untouched. Every byte reads back as written, holes as
// zero, and the untouched chunk is never made.
func TestChunkFillCases(t *testing.T) {
	fs := testFS()
	f, _ := fs.Create("f", 0)
	rng := rand.New(rand.NewSource(3))
	const c = chunkSize
	oracle := make([]byte, 8*c)
	write := func(off int64, pieces ...int) {
		t.Helper()
		var iov [][]byte
		n := int64(0)
		for _, l := range pieces {
			p := make([]byte, l)
			rng.Read(p)
			copy(oracle[off+n:], p)
			iov = append(iov, p)
			n += int64(l)
		}
		if _, err := f.WriteVec(0, []Segment{{Off: off, Len: n}}, iov); err != nil {
			t.Fatal(err)
		}
	}
	write(0, c)                  // chunk 0: one piece fills it
	write(c, 1000, c-3000, 2000) // chunk 1: several pieces fill it
	write(2*c+100, 1000)         // chunk 2: partly written; chunk 3 untouched
	write(4*c+c/2, 2*c)          // one piece: half of chunk 4, all of 5, half of 6
	write(c, c)                  // chunk 1 again, one piece over an existing chunk
	write(7*c, 10)               // chunk 7: the file's tail
	got := make([]byte, f.Size())
	if int64(len(got)) != 7*c+10 {
		t.Fatalf("size %d, want %d", len(got), 7*c+10)
	}
	f.ReadAt(0, got, 0)
	for i := range got {
		if got[i] != oracle[i] {
			t.Fatalf("byte %d (chunk %d) = %#x, want %#x", i, i/c, got[i], oracle[i])
		}
	}
	if f.fd.store.shard(3).chunks[3] != nil {
		t.Fatal("an untouched chunk was made")
	}
}

func TestSerialFileAdapter(t *testing.T) {
	fs := testFS()
	f, t0 := fs.Create("f", 0)
	s := NewSerialFile(f, t0)
	if _, err := s.WriteAt([]byte("hello"), 3); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := s.ReadAt(buf, 3); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("adapter round trip: %q", buf)
	}
	if s.Clock() <= t0 {
		t.Fatal("adapter clock did not advance")
	}
	if sz, _ := s.Size(); sz != 8 {
		t.Fatalf("size = %d", sz)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if sz, _ := s.Size(); sz != 4 {
		t.Fatalf("size after truncate = %d", sz)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEveryMethodIsCharged: every simulated bandwidth number rests on each
// byte the store moves being charged to the cost model and counted. Every
// exported method of *File and *SerialFile needs a row (found by reflection):
// one that moves 1 MiB takes at least its time at peak bandwidth and counts
// its bytes and its one call; one that moves no bytes says why.
func TestEveryMethodIsCharged(t *testing.T) {
	const n = 1 << 20
	type op func(f *File, t float64, p []byte) (float64, error)
	serial := func(do func(s *SerialFile, p []byte) (int, error)) op {
		return func(f *File, t float64, p []byte) (float64, error) {
			s := NewSerialFile(f, t)
			_, err := do(s, p)
			return s.Clock(), err
		}
	}
	one := []Segment{{Off: 0, Len: n}}
	halves := func(p []byte) [][]byte { return [][]byte{p[:n/2], p[n/2:]} }
	rows := map[string]struct {
		do   op
		read bool
		why  string
	}{
		"File.ReadAt":       {do: func(f *File, t float64, p []byte) (float64, error) { return f.ReadAt(t, p, 0) }, read: true},
		"File.ReadV":        {do: func(f *File, t float64, p []byte) (float64, error) { return f.ReadV(t, one, p) }, read: true},
		"File.ReadVec":      {do: func(f *File, t float64, p []byte) (float64, error) { return f.ReadVec(t, one, halves(p)) }, read: true},
		"SerialFile.ReadAt": {do: serial(func(s *SerialFile, p []byte) (int, error) { return s.ReadAt(p, 0) }), read: true},
		"File.WriteAt":      {do: func(f *File, t float64, p []byte) (float64, error) { return f.WriteAt(t, p, 0) }},
		"File.WriteVec":     {do: func(f *File, t float64, p []byte) (float64, error) { return f.WriteVec(t, one, halves(p)) }},
		"File.WriteBehind": {do: func(f *File, t float64, p []byte) (float64, error) {
			_, done, err := f.WriteBehind(t, one, halves(p))
			return done, err
		}},
		"SerialFile.WriteAt":  {do: serial(func(s *SerialFile, p []byte) (int, error) { return s.WriteAt(p, 0) })},
		"File.Name":           {why: "returns the name"},
		"File.Size":           {why: "returns the size"},
		"File.Truncate":       {why: "metadata only: no transfer for the cost model to charge"},
		"File.LockRMW":        {why: "a host-side range lock; the sieving read and write inside it are charged"},
		"File.UnlockRMW":      {why: "releases that lock"},
		"File.Sync":           {why: "charges the flush barrier; moves no bytes"},
		"File.SetStats":       {why: "installs the collectors"},
		"File.SetSpans":       {why: "installs the span recorder"},
		"SerialFile.Size":     {why: "returns the size"},
		"SerialFile.Truncate": {why: "metadata only, as File.Truncate"},
		"SerialFile.Sync":     {why: "charges the flush barrier through File.Sync"},
		"SerialFile.Close":    {why: "a no-op on the simulated store"},
		"SerialFile.Clock":    {why: "returns the clock"},
		"SerialFile.SetClock": {why: "sets the clock"},
	}
	methods := map[string]bool{}
	for _, v := range []any{(*File)(nil), (*SerialFile)(nil)} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumMethod(); i++ {
			name := typ.Elem().Name() + "." + typ.Method(i).Name
			methods[name] = true
			if _, ok := rows[name]; !ok {
				t.Errorf("%s has no row: say what it charges", name)
			}
		}
	}
	for name, r := range rows {
		if !methods[name] {
			t.Errorf("row %s names no method", name)
		}
		if r.do == nil {
			continue
		}
		fs := testFS()
		f, _ := fs.Create("f", 0)
		p := make([]byte, n)
		peak, bytes, calls := fs.PeakWriteBW(), iostat.PfsBytesWritten, iostat.PfsWriteCalls
		if r.read {
			f.WriteAt(0, p, 0)
			fs.ResetClock()
			peak, bytes, calls = fs.PeakReadBW(), iostat.PfsBytesRead, iostat.PfsReadCalls
		}
		st := iostat.New()
		f.SetStats(st, -1)
		const issue = 1.0
		done, err := r.do(f, issue, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if floor := n / peak; done-issue < floor {
			t.Errorf("%s: %.0e s for 1 MiB, faster than the peak %.0e s", name, done-issue, floor)
		}
		if got := st.Get(bytes); got != n {
			t.Errorf("%s: %s = %d, want %d", name, bytes, got, n)
		}
		if got := st.Get(calls); got != 1 {
			t.Errorf("%s: %s = %d, want 1", name, calls, got)
		}
	}
}

func TestNamesSorted(t *testing.T) {
	fs := testFS()
	for _, n := range []string{"c", "a", "b"} {
		fs.Create(n, 0)
	}
	names := fs.Names()
	if fmt.Sprint(names) != "[a b c]" {
		t.Fatalf("Names = %v", names)
	}
}

func TestUnalignedWritePaysRMW(t *testing.T) {
	// A write of one stripe's worth of data that is stripe-aligned must be
	// cheaper than the same write misaligned by half a stripe (which touches
	// two partial blocks and pays two read-modify-writes).
	// At a size where every server is busy either way (so striping
	// parallelism cannot mask the penalty), the misaligned variant touches
	// two partial blocks and pays their read-before-write.
	cfg := DefaultConfig()
	stripe := cfg.StripeSize
	n := stripe * int64(2*cfg.NumServers) // two full rounds of the server ring

	fsA := New(cfg)
	fa, _ := fsA.Create("a", 0)
	aligned, _ := fa.WriteAt(0, make([]byte, n), 0)

	fsB := New(cfg)
	fb, _ := fsB.Create("b", 0)
	misaligned, _ := fb.WriteAt(0, make([]byte, n), stripe/2)

	if misaligned <= aligned {
		t.Fatalf("misaligned write (%.5fs) not costlier than aligned (%.5fs)", misaligned, aligned)
	}
	// Reads never pay RMW: the gap must be much smaller.
	fsC := New(cfg)
	fc, _ := fsC.Create("c", 0)
	alignedR, _ := fc.ReadV(0, []Segment{{Off: 0, Len: n}}, make([]byte, n))
	fsD := New(cfg)
	fd, _ := fsD.Create("d", 0)
	misalignedR, _ := fd.ReadV(0, []Segment{{Off: stripe / 2, Len: n}}, make([]byte, n))
	if misalignedR > alignedR*1.10 {
		t.Fatalf("misaligned read (%.5fs) penalized like a write (aligned %.5fs)", misalignedR, alignedR)
	}
}

// TestChargeCountsPartialBlocksOnce: a write pays one read-modify-write per
// partially covered stripe block however many of its merged extents touch
// the block — one extent's ragged head and tail, the tail of one and the
// head of the next, several small extents — and charge keeps its per-server
// tables off the heap on the benchmarks' 12- and 2-server machines.
func TestChargeCountsPartialBlocksOnce(t *testing.T) {
	const S = 1024
	for _, servers := range []int{12, 2} {
		cfg := DefaultConfig()
		cfg.NumServers, cfg.StripeSize = servers, S
		fs := New(cfg)
		for _, tc := range []struct {
			segs []Segment
			want int64
		}{
			{[]Segment{{Off: 100, Len: 200}}, 1},
			{[]Segment{{Off: 100, Len: 2 * S}}, 2},
			{[]Segment{{Off: 0, Len: 100}, {Off: 200, Len: 100}, {Off: 500, Len: 10}}, 1},
			{[]Segment{{Off: S - 10, Len: 5}, {Off: S + 10, Len: 5}, {Off: 3*S - 1, Len: 2}}, 4},
			{[]Segment{{Off: 0, Len: S}, {Off: 3 * S, Len: 2 * S}}, 0},
			{[]Segment{{Off: 500, Len: 10}, {Off: 100, Len: 10}, {Off: 2*S + 1, Len: S}}, 3},
		} {
			st := iostat.New()
			fs.charge(0, tc.segs, false, st)
			if got := st.Get(iostat.PfsRMWBlocks); got != tc.want {
				t.Errorf("%d servers, write %v: %d partial blocks, want %d", servers, tc.segs, got, tc.want)
			}
			st = iostat.New()
			fs.charge(0, tc.segs, true, st)
			if got := st.Get(iostat.PfsRMWBlocks); got != 0 {
				t.Errorf("%d servers, read %v: %d partial blocks, want 0", servers, tc.segs, got)
			}
		}
		segs := []Segment{{Off: 100, Len: 3 * S}, {Off: 5 * S, Len: 7 * S}, {Off: 13*S + 5, Len: 40}}
		st := iostat.New()
		if got := testing.AllocsPerRun(50, func() { fs.charge(0, segs, false, st) }); got != 0 {
			t.Errorf("%d servers: charge allocates %v objects per request, want 0", servers, got)
		}
	}
}

func TestDiscardThresholdKeepsMetadata(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Discard = true
	cfg.DiscardThreshold = 4096
	fs := New(cfg)
	f, _ := fs.Create("f", 0)
	// Small (metadata-sized) write is retained.
	f.WriteAt(0, []byte("superblock!"), 0)
	// Large (bulk) write is dropped.
	f.WriteAt(0, bytes.Repeat([]byte{0xAB}, 8192), 1024)
	small := make([]byte, 11)
	f.ReadAt(0, small, 0)
	if string(small) != "superblock!" {
		t.Fatalf("metadata lost in discard mode: %q", small)
	}
	bulk := make([]byte, 16)
	f.ReadAt(0, bulk, 2048)
	for _, b := range bulk {
		if b != 0 {
			t.Fatal("bulk data retained in discard mode")
		}
	}
	if f.Size() != 1024+8192 {
		t.Fatalf("size = %d", f.Size())
	}
}

// TestWriteBehindReportsTheLink: WriteBehind is WriteVec's charge and
// completion plus the time the request's bytes left the client link — the
// arrival of its last pipelining window — which a request several windows
// long reaches well before the servers finish.
func TestWriteBehindReportsTheLink(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PipeChunk = 1 << 20
	const n = 4 << 20
	p := make([]byte, n)
	one := []Segment{{Off: 0, Len: n}}
	a, _ := New(cfg).Create("a", 0)
	b, _ := New(cfg).Create("b", 0)
	want, err := a.WriteVec(1, one, [][]byte{p})
	if err != nil {
		t.Fatal(err)
	}
	left, done, err := b.WriteBehind(1, one, [][]byte{p})
	if err != nil {
		t.Fatal(err)
	}
	if done != want {
		t.Errorf("WriteBehind completes at %g, WriteVec at %g", done, want)
	}
	if link := 1 + cfg.NetLatency + float64(n)/cfg.ClientBW; left != link || left >= done {
		t.Errorf("bytes left the link at %g, want %g, before the completion at %g", left, link, done)
	}
}
