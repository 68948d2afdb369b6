package pfs

import (
	"bytes"
	"errors"
	"testing"

	"pnetcdf/internal/fault"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/span"
)

// Fault coverage for the vectored entry points. A transient fault cuts a
// request at the unit that failed: the bytes before the cut land byte-exact
// — even when the cut falls mid-iovec-entry and mid-segment — and the
// request resumes from the cut, so it completes having moved every byte once
// (the byte counters equal the request), one counted batch and one span per
// attempt. A request whose attempts keep moving nothing gives up; a crash
// point fails it at once.

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

// cutUnit is the fault unit of these tests: 4 bytes, so a 60-byte request
// is 15 units and a cut can fall inside any segment or iovec entry.
const cutUnit = 4

// findCutSeed scans for a seed whose first decision for the 60-byte request
// at offset 0 cuts it strictly inside payload bytes (lo, hi); then, when
// stalls > 0, the remainder's next stalls decisions all cut it at its first
// unit, moving nothing. Probing a throwaway injector per seed keeps the real
// injector's occurrence counters clean. It returns the seed and the cut.
func findCutSeed(t *testing.T, cfg fault.Config, op fault.Op, lo, hi int64, stalls int) (uint64, int64) {
	t.Helper()
	segs := vecSegs()
	for seed := uint64(1); seed < 200000; seed++ {
		cfg.Seed = seed
		in := fault.New(cfg)
		first := in.Decide(0, op, 0, 60)
		if !errors.Is(first.Err, fault.ErrTransient) || first.N <= lo || first.N >= hi {
			continue
		}
		_, rest := cut(segs, first.N)
		ok := true
		for i := 0; i < stalls && ok; i++ {
			out := in.Decide(0, op, rest[0].Off, 60-first.N)
			ok = errors.Is(out.Err, fault.ErrTransient) && out.N == 0
		}
		if ok {
			return seed, first.N
		}
	}
	t.Fatal("no suitable fault seed found")
	return 0, 0
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

// faultedFile is a fresh file on a file system with cfg's injector, its
// counters and span recorder installed.
func faultedFile(cfg fault.Config) (*FS, *File, *iostat.Stats, *span.Recorder) {
	fs := New(BlueHorizon())
	fs.SetFault(fault.New(cfg))
	f, _ := fs.Create("vec.dat", 0)
	st, rec := iostat.New(), span.NewRecorder(0, nil)
	f.SetStats(st, 0)
	f.SetSpans(rec)
	return fs, f, st, rec
}

// writeSpans is rec's pfs_write spans: the attempts of the writes under
// test, without the read-backs.
func writeSpans(rec *span.Recorder) []span.Span {
	var out []span.Span
	for _, s := range rec.Spans() {
		if s.Phase == span.PFSWrite {
			out = append(out, s)
		}
	}
	return out
}

// TestWriteVecTransientLeavesExactPrefix: the first attempt is cut inside
// the second iovec entry and the second segment (payload bytes 10..30 are
// segment 2; entry 2 covers bytes 7..32), and every attempt at the remainder
// then moves nothing, so the request gives up: exactly the bytes before the
// cut are on disk and counted, once.
func TestWriteVecTransientLeavesExactPrefix(t *testing.T) {
	segs, payload := vecSegs(), vecPayload()
	cfg := fault.Config{WriteErrRate: 0.6, FaultUnit: cutUnit}
	seed, n := findCutSeed(t, cfg, fault.OpWrite, 10, 30, maxStalls+1)
	cfg.Seed = seed
	fs, f, st, rec := faultedFile(cfg)

	if _, err := f.WriteVec(0, segs, vecIov(payload)); !errors.Is(err, fault.ErrRetriesExhausted) {
		t.Fatalf("err = %v, want retries exhausted", err)
	}
	for _, s := range segs {
		if got, want := readBack(t, fs, f, s), wantPrefix(segs, payload, n, s); !bytes.Equal(got, want) {
			t.Errorf("seg %+v = %v, want %v (cut at %d)", s, got, want, n)
		}
	}
	// One attempt moved the prefix, then maxStalls+1 moved nothing.
	attempts := int64(maxStalls + 2)
	if got := st.Get(iostat.PfsBytesWritten); got != n {
		t.Errorf("bytes written = %d, want the %d before the cut", got, n)
	}
	if got := st.Get(iostat.PfsWriteCalls); got != attempts {
		t.Errorf("write calls = %d, want %d attempts", got, attempts)
	}
	if got := st.Get(iostat.PfsRetries); got != attempts-1 {
		t.Errorf("retries = %d, want %d", got, attempts-1)
	}
	if got := st.Get(iostat.PfsFaultsInjected); got != attempts {
		t.Errorf("faults injected = %d, want %d", got, attempts)
	}
	// 1 ms after the cut that moved bytes, then 2, 4, ... capped at 50 ms
	// for the stalls: the cut that moved bytes restarted the schedule.
	wantWait := 1e-3 + 2e-3 + 4e-3 + 8e-3 + 16e-3 + 32e-3 + 3*50e-3
	if got := float64(st.Get(iostat.PfsBackoffTimeNs)) / 1e9; got < wantWait-1e-9 || got > wantWait+1e-9 {
		t.Errorf("backoff = %g s, want %g", got, wantWait)
	}
	if spans := writeSpans(rec); int64(len(spans)) != attempts || spans[0].Bytes != n {
		t.Errorf("%d spans, first of %d bytes; want %d, the first of %d", len(spans), spans[0].Bytes, attempts, n)
	}
}

// TestWriteVecRetryPolicyCompletes: under the request's retry policy (resume
// from the cut after a backoff) a write cut mid-iovec-entry and mid-segment
// completes. Every byte lands exactly,
// the byte counter equals the request, and each attempt is one counted batch
// and one span, the first carrying the bytes before the cut.
func TestWriteVecRetryPolicyCompletes(t *testing.T) {
	segs, payload := vecSegs(), vecPayload()
	cfg := fault.Config{WriteErrRate: 0.2, FaultUnit: cutUnit}
	seed, n := findCutSeed(t, cfg, fault.OpWrite, 10, 30, 0)
	cfg.Seed = seed
	fs, f, st, rec := faultedFile(cfg)

	done, err := f.WriteVec(0, segs, vecIov(payload))
	if err != nil {
		t.Fatalf("resumed write: %v", err)
	}
	pos := int64(0)
	for _, s := range segs {
		if got := readBack(t, fs, f, s); !bytes.Equal(got, payload[pos:pos+s.Len]) {
			t.Errorf("seg %+v = %v, want %v", s, got, payload[pos:pos+s.Len])
		}
		pos += s.Len
	}
	retries := st.Get(iostat.PfsRetries)
	if retries < 1 {
		t.Fatalf("retries = %d, want >= 1 (the seed was chosen to cut the first attempt)", retries)
	}
	if got := st.Get(iostat.PfsBytesWritten); got != 60 {
		t.Errorf("bytes written = %d, want exactly the request's 60", got)
	}
	if got := st.Get(iostat.PfsWriteCalls); got != 1+retries {
		t.Errorf("write calls = %d, want %d attempts", got, 1+retries)
	}
	spans := writeSpans(rec)
	if int64(len(spans)) != 1+retries || spans[0].Bytes != n {
		t.Fatalf("spans %+v: want %d, the first of %d bytes", spans, 1+retries, n)
	}
	// The attempts that moved bytes tile the request in order, each from
	// the file byte where the last one was cut.
	pos = 0
	for _, sp := range spans {
		if sp.Bytes == 0 {
			continue
		}
		if _, rest := cut(segs, pos); sp.Off != rest[0].Off {
			t.Errorf("attempt %+v starts at file byte %d, want %d (payload byte %d)", sp, sp.Off, rest[0].Off, pos)
		}
		pos += sp.Bytes
	}
	if pos != 60 {
		t.Errorf("attempts moved %d bytes, want 60", pos)
	}
	if last := spans[len(spans)-1]; last.End != done {
		t.Errorf("request done at %g, its last attempt at %g", done, last.End)
	}
	if backoff := float64(st.Get(iostat.PfsBackoffTimeNs)) / 1e9; done < backoff {
		t.Errorf("request done at %g, before its %g s of backoff", done, backoff)
	}
}

// TestReadVecTransientRetry: a read cut inside the second iovec entry and
// the second segment resumes and returns every byte, counting the request's
// bytes once.
func TestReadVecTransientRetry(t *testing.T) {
	segs, payload := vecSegs(), vecPayload()
	cfg := fault.Config{ReadErrRate: 0.2, FaultUnit: cutUnit}
	// Read iovec entries are [0,13), [13,41), [41,60).
	seed, _ := findCutSeed(t, cfg, fault.OpRead, 13, 30, 0)
	cfg.Seed = seed
	fs, f, st, _ := faultedFile(cfg)
	saved := fs.Fault()
	fs.SetFault(nil)
	if _, err := f.WriteVec(0, segs, vecIov(payload)); err != nil {
		t.Fatal(err)
	}
	fs.SetFault(saved)

	dst := make([]byte, 60)
	if _, err := f.ReadVec(0, segs, [][]byte{dst[:13], dst[13:41], dst[41:]}); err != nil {
		t.Fatalf("resumed read: %v", err)
	}
	if !bytes.Equal(dst, payload) {
		t.Errorf("read back %v, want %v", dst, payload)
	}
	retries := st.Get(iostat.PfsRetries)
	if retries < 1 {
		t.Fatalf("retries = %d, want >= 1", retries)
	}
	if got := st.Get(iostat.PfsBytesRead); got != 60 {
		t.Errorf("bytes read = %d, want exactly 60", got)
	}
	if got := st.Get(iostat.PfsReadCalls); got != 1+retries {
		t.Errorf("read calls = %d, want %d attempts", got, 1+retries)
	}
}

// TestStalledRequestGivesUp: when every attempt fails at its first unit, a
// request gives up after maxStalls retries with a permanent error that no
// longer reads as transient, having waited 1, 2, 4, ... ms capped at 50 ms
// between attempts, all of it on the request's clock.
func TestStalledRequestGivesUp(t *testing.T) {
	_, f, st, _ := faultedFile(fault.Config{Seed: 1, ReadErrRate: 1})
	done, err := f.ReadAt(10, make([]byte, 100), 0)
	if !errors.Is(err, fault.ErrRetriesExhausted) || errors.Is(err, fault.ErrTransient) {
		t.Fatalf("err = %v, want retries exhausted, not transient", err)
	}
	wantWait := 1e-3 + 2e-3 + 4e-3 + 8e-3 + 16e-3 + 32e-3 + 2*50e-3
	if got := float64(st.Get(iostat.PfsBackoffTimeNs)) / 1e9; got < wantWait-1e-9 || got > wantWait+1e-9 {
		t.Errorf("backoff = %g s, want %g", got, wantWait)
	}
	if got := st.Get(iostat.PfsRetries); got != maxStalls {
		t.Errorf("retries = %d, want %d", got, maxStalls)
	}
	if got := st.Get(iostat.PfsReadCalls); got != maxStalls+1 {
		t.Errorf("read calls = %d, want %d", got, maxStalls+1)
	}
	if got := st.Get(iostat.PfsBytesRead); got != 0 {
		t.Errorf("bytes read = %d, want 0", got)
	}
	if done < 10+wantWait {
		t.Errorf("done at %g, before the %g s of backoff after the issue at 10", done, wantWait)
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

	// A read through an armed crash point fails for good, and a truncating
	// crash point cuts no file on a read.
	inj.ArmCrash(20, true)
	if _, err := f.ReadVec(0, segs, vecIov(make([]byte, 60))); !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("read err = %v, want ErrCrashed", err)
	}
	if got := f.Size(); got != 40 {
		t.Errorf("size after a read crash = %d, want 40", got)
	}
}
