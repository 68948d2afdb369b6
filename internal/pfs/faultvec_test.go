package pfs

import (
	"bytes"
	"errors"
	"testing"

	"pnetcdf/internal/fault"
	"pnetcdf/internal/iostat"
)

// Fault coverage for the vectored entry points: a transient error or crash
// must leave exactly the injector-chosen payload prefix on disk — byte-exact
// even when the cut lands mid-iovec-entry and mid-segment — a re-issue must
// resume to a complete, correct write, and iostat must count only the bytes
// the successful batch moved.

// vecSegs/vecIov build a 3-segment, 60-byte request whose iovec entry
// boundaries (7, 25, 28) align with neither each other nor the segment
// boundaries (10, 20, 30).
func vecSegs() []Segment {
	return []Segment{{Off: 0, Len: 10}, {Off: 100, Len: 20}, {Off: 200, Len: 30}}
}

func vecPayload() []byte {
	p := make([]byte, 60)
	for i := range p {
		p[i] = byte(i + 1) // nonzero, so "not written" is distinguishable
	}
	return p
}

func vecIov(p []byte) [][]byte {
	return [][]byte{p[:7], p[7:32], p[32:]}
}

// findWriteFaultSeed scans for a seed whose first write decision for this
// batch is a transient error cutting the payload strictly inside (lo, hi),
// and whose first retry succeeds. Probing a throwaway injector per seed
// keeps the real injector's occurrence counters clean.
func findWriteFaultSeed(t *testing.T, cfg fault.Config, off, n, lo, hi int64) uint64 {
	t.Helper()
	for seed := uint64(1); seed < 50000; seed++ {
		cfg.Seed = seed
		in := fault.New(cfg)
		first := in.Decide(0, fault.OpWrite, off, n)
		if !errors.Is(first.Err, fault.ErrTransient) || first.N <= lo || first.N >= hi {
			continue
		}
		if retry := in.Decide(0, fault.OpWrite, off, n); retry.Err == nil && retry.N == n {
			return seed
		}
	}
	t.Fatal("no suitable fault seed found")
	return 0
}

// readBack returns the file content over seg with injection disabled.
func readBack(t *testing.T, fs *FS, f *File, seg Segment) []byte {
	t.Helper()
	saved := fs.Fault()
	fs.SetFault(nil)
	defer fs.SetFault(saved)
	buf := make([]byte, seg.Len)
	if _, err := f.ReadAt(0, buf, seg.Off); err != nil {
		t.Fatalf("readback: %v", err)
	}
	return buf
}

// wantPrefix computes the expected content of seg after the first n payload
// bytes of the batch have landed.
func wantPrefix(segs []Segment, payload []byte, n int64, seg Segment) []byte {
	want := make([]byte, seg.Len)
	pos := int64(0)
	for _, s := range segs {
		landed := min(n-pos, s.Len)
		if s == seg && landed > 0 {
			copy(want, payload[pos:pos+landed])
		}
		pos += s.Len
		if pos >= n {
			break
		}
	}
	return want
}

func TestWriteVecTransientLeavesExactPrefix(t *testing.T) {
	segs := vecSegs()
	payload := vecPayload()
	cfg := fault.Config{WriteErrRate: 0.5}
	// Cut inside the second iovec entry AND the second segment: payload
	// bytes 10..30 are segment 2; iovec entry 2 covers bytes 7..32.
	seed := findWriteFaultSeed(t, cfg, 0, 60, 12, 30)
	cfg.Seed = seed

	fs := New(BlueHorizon())
	fs.SetFault(fault.New(cfg))
	f, _ := fs.Create("vec.dat", 0)
	st := iostat.New()
	f.SetStats(st, 0)

	_, err := f.WriteVec(0, segs, vecIov(payload))
	if !errors.Is(err, fault.ErrTransient) {
		t.Fatalf("err = %v, want transient", err)
	}
	// Reconstruct the injected outcome to learn the prefix length.
	probe := fault.New(cfg)
	n := probe.Decide(0, fault.OpWrite, 0, 60).N
	if n <= 12 || n >= 30 {
		t.Fatalf("probe N = %d outside the selected band", n)
	}
	for _, s := range segs {
		got := readBack(t, fs, f, s)
		want := wantPrefix(segs, payload, n, s)
		if !bytes.Equal(got, want) {
			t.Errorf("after fault, seg %+v = %v, want %v (prefix %d)", s, got, want, n)
		}
	}
	if got := st.Get(iostat.PfsFaultsInjected); got != 1 {
		t.Errorf("faults injected = %d, want 1", got)
	}
	if got := st.Get(iostat.PfsBytesWritten); got != 0 {
		t.Errorf("bytes written after failed batch = %d, want 0 (only successful batches count)", got)
	}

	// Re-issuing the identical request is idempotent recovery: the retry
	// succeeds (occurrence advanced) and rewrites the full range.
	if _, err := f.WriteVec(0, segs, vecIov(payload)); err != nil {
		t.Fatalf("retry: %v", err)
	}
	pos := int64(0)
	for _, s := range segs {
		got := readBack(t, fs, f, s)
		if !bytes.Equal(got, payload[pos:pos+s.Len]) {
			t.Errorf("after retry, seg %+v = %v, want %v", s, got, payload[pos:pos+s.Len])
		}
		pos += s.Len
	}
	if got := st.Get(iostat.PfsBytesWritten); got != 60 {
		t.Errorf("bytes written = %d, want exactly 60", got)
	}
	if got := st.Get(iostat.PfsWriteCalls); got != 1 {
		t.Errorf("write calls = %d, want 1 (failed batch not counted)", got)
	}
}

func TestWriteVecRetryPolicyCompletes(t *testing.T) {
	segs := vecSegs()
	payload := vecPayload()
	cfg := fault.Config{WriteErrRate: 0.5}
	cfg.Seed = findWriteFaultSeed(t, cfg, 0, 60, 1, 60)

	fs := New(BlueHorizon())
	fs.SetFault(fault.New(cfg))
	f, _ := fs.Create("vec.dat", 0)

	_, retries, _, err := fault.DefaultRetryPolicy().Do(0, func(t float64) (float64, error) {
		return f.WriteVec(t, segs, vecIov(payload))
	})
	if err != nil {
		t.Fatalf("retried write: %v", err)
	}
	if retries < 1 {
		t.Fatalf("retries = %d, want >= 1 (seed was chosen to fault first)", retries)
	}
	pos := int64(0)
	for _, s := range segs {
		got := readBack(t, fs, f, s)
		if !bytes.Equal(got, payload[pos:pos+s.Len]) {
			t.Errorf("seg %+v = %v, want %v", s, got, payload[pos:pos+s.Len])
		}
		pos += s.Len
	}
}

func TestReadVecTransientRetry(t *testing.T) {
	segs := vecSegs()
	payload := vecPayload()

	fs := New(BlueHorizon())
	f, _ := fs.Create("vec.dat", 0)
	if _, err := f.WriteVec(0, segs, vecIov(payload)); err != nil {
		t.Fatal(err)
	}

	// Find a seed whose first read decision faults and whose retry clears.
	var seed uint64
	for s := uint64(1); s < 50000; s++ {
		in := fault.New(fault.Config{Seed: s, ReadErrRate: 0.5})
		if !errors.Is(in.Decide(0, fault.OpRead, 0, 60).Err, fault.ErrTransient) {
			continue
		}
		if in.Decide(0, fault.OpRead, 0, 60).Err == nil {
			seed = s
			break
		}
	}
	if seed == 0 {
		t.Fatal("no read fault seed found")
	}
	fs.SetFault(fault.New(fault.Config{Seed: seed, ReadErrRate: 0.5}))
	st := iostat.New()
	f.SetStats(st, 0)

	dst := make([]byte, 60)
	iov := [][]byte{dst[:13], dst[13:41], dst[41:]}
	_, err := f.ReadVec(0, segs, iov)
	if !errors.Is(err, fault.ErrTransient) {
		t.Fatalf("first read err = %v, want transient", err)
	}
	if _, err := f.ReadVec(0, segs, iov); err != nil {
		t.Fatalf("read retry: %v", err)
	}
	if !bytes.Equal(dst, payload) {
		t.Errorf("read back %v, want %v", dst, payload)
	}
	if got := st.Get(iostat.PfsBytesRead); got != 60 {
		t.Errorf("bytes read = %d, want exactly 60", got)
	}
	if got := st.Get(iostat.PfsReadCalls); got != 1 {
		t.Errorf("read calls = %d, want 1", got)
	}
	if got := st.Get(iostat.PfsFaultsInjected); got != 1 {
		t.Errorf("faults injected = %d, want 1", got)
	}
}

func TestWriteVecCrashCutsMidIovec(t *testing.T) {
	segs := vecSegs()
	payload := vecPayload()

	fs := New(BlueHorizon())
	inj := fault.New(fault.Config{})
	fs.SetFault(inj)
	f, _ := fs.Create("vec.dat", 0)

	// Crash 25 payload bytes in: inside iovec entry 2 and segment 2.
	inj.ArmCrash(25, false)
	_, err := f.WriteVec(0, segs, vecIov(payload))
	if !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	for _, s := range segs {
		got := readBack(t, fs, f, s)
		want := wantPrefix(segs, payload, 25, s)
		if !bytes.Equal(got, want) {
			t.Errorf("after crash, seg %+v = %v, want %v", s, got, want)
		}
	}
}

func TestWriteVecCrashTruncatesFile(t *testing.T) {
	segs := vecSegs()
	payload := vecPayload()

	fs := New(BlueHorizon())
	inj := fault.New(fault.Config{})
	fs.SetFault(inj)
	f, _ := fs.Create("vec.dat", 0)
	if _, err := f.WriteVec(0, segs, vecIov(payload)); err != nil {
		t.Fatal(err)
	}

	// The crash point is payload-relative to the batch start (offset 0,
	// 60 payload bytes): byte 40 cuts inside the third segment.
	inj.ArmCrash(40, true)
	if _, err := f.WriteVec(0, segs, vecIov(payload)); !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	if got := f.Size(); got != 40 {
		t.Errorf("size after crash-truncate = %d, want 40", got)
	}
}
