package mpiio

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"pnetcdf/internal/fault"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/pfs"
)

// TestIndependentIORetriesTransients: under a transient fault rate, every
// independent read and write must still complete (retries clear injected
// errors), the data must round-trip exactly, and the retry counters must
// show the recovery work — for raw requests, and for a strided view whose
// sieving windows are locked read-modify-writes.
func TestIndependentIORetriesTransients(t *testing.T) {
	const ranks, raw = 4, 1 << 16
	fsys := testFS()
	fsys.SetFault(fault.New(fault.Config{
		Seed: 11, ReadErrRate: 0.05, WriteErrRate: 0.05,
		LatencyRate: 0.05, LatencySpike: 2e-3,
	}))
	info := mpi.NewInfo().Set("ind_rd_buffer_size", "4096").Set("ind_wr_buffer_size", "4096")
	var mu sync.Mutex
	var rawRetries, viewRetries int64
	runWorld(t, ranks, func(c *mpi.Comm) error {
		c.Proc().SetStats(iostat.New())
		f, err := Open(c, fsys, "retry", ModeRdWr|ModeCreate, info)
		if err != nil {
			return err
		}
		want := bytes.Repeat([]byte{byte('A' + c.Rank())}, raw)
		base := int64(c.Rank()) * raw
		for i := 0; i < 8; i++ {
			if err := f.WriteRaw(want[i*8192:(i+1)*8192], base+int64(i*8192)); err != nil {
				return err
			}
		}
		got := make([]byte, len(want))
		if err := f.ReadRaw(got, base); err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			t.Errorf("rank %d: data corrupted under transient faults", c.Rank())
		}
		r0 := c.Proc().Stats().Get(iostat.PfsRetries)

		// Rank r owns blocks r, r+4, ... of 512 bytes past the raw region.
		v, err := mpitype.Vector(128, 512, ranks*512, mpitype.Contig(1))
		if err != nil {
			return err
		}
		if err := f.SetView(ranks*raw+int64(c.Rank())*512, v); err != nil {
			return err
		}
		data := make([]byte, v.Size())
		for i := range data {
			data[i] = byte(c.Rank()*31 + i%251)
		}
		if err := writeAt(f, 0, data); err != nil {
			return err
		}
		c.Barrier()
		if err := readAt(f, 0, got[:len(data)]); err != nil {
			return err
		}
		if !bytes.Equal(got[:len(data)], data) {
			t.Errorf("rank %d: sieved view data corrupted under transient faults", c.Rank())
		}
		if c.Proc().Stats().Get(iostat.IOSieveRMW) == 0 {
			t.Errorf("rank %d: the view write was not sieved", c.Rank())
		}
		mu.Lock()
		rawRetries += r0
		viewRetries += c.Proc().Stats().Get(iostat.PfsRetries) - r0
		mu.Unlock()
		return f.Close()
	})
	if fsys.Fault().Injected() == 0 {
		t.Fatal("no faults injected; test proves nothing")
	}
	if rawRetries == 0 || viewRetries == 0 {
		t.Fatalf("faults injected but pfs_retries is %d for raw requests and %d for the view — retries not accounted",
			rawRetries, viewRetries)
	}
}

// TestSievedWriteCrashReleasesLock: a permanent failure of a sieved
// write-back — every write fails, so the window's read succeeds and its
// write-back exhausts its retries while the range lock is held — fails that
// write and must release the read-modify-write range lock on the way out,
// so a second rank's sieved write to an overlapping window afterwards
// completes and lands. (A leaked lock hangs the second write.)
func TestSievedWriteCrashReleasesLock(t *testing.T) {
	fsys := testFS()
	fsys.SetFault(fault.New(fault.Config{Seed: 17, WriteErrRate: 1}))
	info := mpi.NewInfo().Set("ind_wr_buffer_size", "4096")
	errs := make([]error, 2)
	runWorld(t, 2, func(c *mpi.Comm) error {
		f, err := Open(c, fsys, "rmwcrash", ModeRdWr|ModeCreate, info)
		if err != nil {
			return err
		}
		// Rank r owns blocks r, r+2, ... of 256 bytes, so each rank's
		// windows cover the other's blocks: rank 0's first is [0, 4096),
		// rank 1's [256, 4352).
		v, err := mpitype.Vector(32, 256, 512, mpitype.Contig(1))
		if err != nil {
			return err
		}
		if err := f.SetView(int64(c.Rank())*256, v); err != nil {
			return err
		}
		data := bytes.Repeat([]byte{byte('A' + c.Rank())}, int(v.Size()))
		if c.Rank() == 0 {
			errs[0] = writeAt(f, 0, data)
			fsys.SetFault(nil)
		}
		c.Barrier()
		if c.Rank() == 1 {
			if errs[1] = writeAt(f, 0, data); errs[1] == nil {
				got := make([]byte, len(data))
				if err := readAt(f, 0, got); err != nil {
					return err
				}
				if !bytes.Equal(got, data) {
					t.Errorf("rank 1: the write after the crash did not land")
				}
			}
		}
		c.Barrier()
		return f.Close()
	})
	if !errors.Is(errs[0], fault.ErrRetriesExhausted) {
		t.Fatalf("rank 0: sieved write whose write-backs all fail returned %v, want retries exhausted", errs[0])
	}
	if errs[1] != nil {
		t.Fatalf("rank 1: sieved write after the crash: %v", errs[1])
	}
}

// TestCollectiveWriteErrorAgreement: a permanent error on one aggregator
// must surface as an error on EVERY rank of the collective — and the
// collective must return (not hang) even though only some ranks saw the
// failure locally.
func TestCollectiveWriteErrorAgreement(t *testing.T) {
	fsys := testFS()
	in := fault.New(fault.Config{Seed: 3})
	fsys.SetFault(in)
	const n = 4
	errs := make([]error, n)
	aborts := make([]int64, n)
	runWorld(t, n, func(c *mpi.Comm) error {
		c.Proc().SetStats(iostat.New())
		f, err := Open(c, fsys, "agree", ModeRdWr|ModeCreate, nil)
		if err != nil {
			return err
		}
		if err := f.SetView(int64(c.Rank())*(1<<20), mpitype.Contig(1<<20)); err != nil {
			return err
		}
		if c.Rank() == 0 {
			// Crash point in the middle of the aggregate range: exactly
			// one aggregator's write hits it.
			in.ArmCrash(2<<20, false)
		}
		c.Barrier()
		errs[c.Rank()] = f.WriteAtAll(0, make([]byte, 1<<20))
		aborts[c.Rank()] = c.Proc().Stats().Get(iostat.IOCollAborts)
		return f.Close()
	})
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d: collective write with crashed peer returned nil", r)
		}
		if !errors.Is(err, fault.ErrCrashed) && !errors.Is(err, mpi.ErrPeerFailed) {
			t.Fatalf("rank %d: unexpected error %v", r, err)
		}
		if aborts[r] == 0 {
			t.Fatalf("rank %d: IOCollAborts not counted", r)
		}
	}
}

// TestCollectiveReadErrorAgreement: same property for the read side, where
// a failed aggregator must not leave peers blocked in the reply exchange.
func TestCollectiveReadErrorAgreement(t *testing.T) {
	fsys := testFS()
	const n = 4
	// Every read fails; retries exhaust into a permanent error on all
	// aggregators. The collective must agree and return everywhere.
	errs := make([]error, n)
	runWorld(t, n, func(c *mpi.Comm) error {
		f, err := Open(c, fsys, "ragree", ModeRdWr|ModeCreate, nil)
		if err != nil {
			return err
		}
		if err := f.WriteAtAll(int64(c.Rank())*4096, make([]byte, 4096)); err != nil {
			return err
		}
		c.Barrier()
		if c.Rank() == 0 {
			fsys.SetFault(fault.New(fault.Config{Seed: 5, ReadErrRate: 1}))
		}
		c.Barrier()
		if err := f.SetView(int64(c.Rank())*4096, mpitype.Contig(4096)); err != nil {
			return err
		}
		errs[c.Rank()] = f.ReadAtAll(0, make([]byte, 4096))
		return f.Close()
	})
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d: collective read with failing aggregators returned nil", r)
		}
		if !errors.Is(err, fault.ErrRetriesExhausted) && !errors.Is(err, mpi.ErrPeerFailed) {
			t.Fatalf("rank %d: unexpected error %v", r, err)
		}
	}
}

// TestPipelinedWriteCrashDrainsAndAgrees: a crash point that fires inside
// an overlapped aggregator write (one settled only after the NEXT round's
// exchange) must agree the error on every rank at the same deferred
// boundary and leave the handle in a clean state — a follow-up collective
// on the same file must succeed and round-trip. The client cache holds one
// round, so each round settles the one before it inside the collective.
func TestPipelinedWriteCrashDrainsAndAgrees(t *testing.T) {
	cfg := pfs.BlueHorizon()
	cfg.ClientCache = 65536
	fsys := pfs.New(cfg)
	in := fault.New(fault.Config{Seed: 13})
	fsys.SetFault(in)
	const n = 4
	info := mpi.NewInfo().Set("cb_buffer_size", "65536").Set("cb_nodes", "2")
	errs := make([]error, n)
	aborts := make([]int64, n)
	overlap := make([]int64, n)
	runWorld(t, n, func(c *mpi.Comm) error {
		c.Proc().SetStats(iostat.New())
		f, err := Open(c, fsys, "pcrash", ModeRdWr|ModeCreate, info)
		if err != nil {
			return err
		}
		if err := f.SetView(int64(c.Rank())*(1<<20), mpitype.Contig(1<<20)); err != nil {
			return err
		}
		if c.Rank() == 0 {
			// Middle of aggregator 1's file domain: fires many rounds in,
			// with the pipeline in steady state.
			in.ArmCrash(3<<20, false)
		}
		c.Barrier()
		errs[c.Rank()] = f.WriteAtAll(0, make([]byte, 1<<20))
		aborts[c.Rank()] = c.Proc().Stats().Get(iostat.IOCollAborts)
		overlap[c.Rank()] = c.Proc().Stats().Get(iostat.IOOverlapTimeNs)
		// Drain proof: nothing is left behind, so the same handle runs a
		// clean collective correctly afterwards.
		want := bytes.Repeat([]byte{byte('a' + c.Rank())}, 1<<20)
		if err := f.WriteAtAll(0, want); err != nil {
			return err
		}
		got := make([]byte, 1<<20)
		if err := f.ReadAtAll(0, got); err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			t.Errorf("rank %d: post-crash collective round trip corrupted", c.Rank())
		}
		return f.Close()
	})
	anyOverlap := int64(0)
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d: pipelined collective with crashed aggregator returned nil", r)
		}
		if !errors.Is(err, fault.ErrCrashed) && !errors.Is(err, mpi.ErrPeerFailed) {
			t.Fatalf("rank %d: unexpected error %v", r, err)
		}
		if aborts[r] == 0 {
			t.Fatalf("rank %d: IOCollAborts not counted on pipelined abort", r)
		}
		anyOverlap += overlap[r]
	}
	if anyOverlap == 0 {
		t.Fatal("no io_overlap_ns recorded; the crash did not exercise the pipelined path")
	}
}

// TestPipelinedTransientFaultsBitIdentical: transient faults landing in
// overlapped writes are resumed inside the request, from the cut; a
// multi-round pipelined run under a high transient rate must still produce
// a byte-identical image to the clean run, with the retries accounted.
func TestPipelinedTransientFaultsBitIdentical(t *testing.T) {
	info := mpi.NewInfo().Set("cb_buffer_size", "4096").Set("cb_nodes", "2")
	const per = 64 << 10
	write := func(fsys *pfs.FS) ([]byte, int64) {
		t.Helper()
		var mu sync.Mutex
		var retries int64
		err := mpi.Run(4, mpi.DefaultNet(), func(c *mpi.Comm) error {
			c.Proc().SetStats(iostat.New())
			f, err := Open(c, fsys, "pimg", ModeRdWr|ModeCreate, info)
			if err != nil {
				return err
			}
			if err := f.SetView(0, blockView(c.Rank(), 4, 4*per)); err != nil {
				return err
			}
			data := make([]byte, per)
			for i := range data {
				data[i] = byte(i*13 + c.Rank()*101)
			}
			if err := f.WriteAtAll(0, data); err != nil {
				return err
			}
			got := make([]byte, per)
			if err := f.ReadAtAll(0, got); err != nil {
				return err
			}
			if !bytes.Equal(got, data) {
				t.Errorf("rank %d: pipelined read-back mismatch under faults", c.Rank())
			}
			mu.Lock()
			retries += c.Proc().Stats().Get(iostat.PfsRetries)
			mu.Unlock()
			return f.Close()
		})
		if err != nil {
			t.Fatal(err)
		}
		pf, _, err := fsys.Open("pimg", 0)
		if err != nil {
			t.Fatal(err)
		}
		img := make([]byte, pf.Size())
		sf := pfs.NewSerialFile(pf, 0)
		if _, err := sf.ReadAt(img, 0); err != nil {
			t.Fatal(err)
		}
		return img, retries
	}
	clean, _ := write(pfs.New(pfs.BlueHorizon()))
	faulty := pfs.New(pfs.BlueHorizon())
	in := fault.New(fault.Config{Seed: 77, ReadErrRate: 0.15, WriteErrRate: 0.15})
	faulty.SetFault(in)
	injected, retries := write(faulty)
	if in.Injected() == 0 {
		t.Fatal("no faults injected; test proves nothing")
	}
	if retries == 0 {
		t.Fatal("faults injected but pfs_retries is zero — the round loops' retry path is not accounted")
	}
	if !bytes.Equal(clean, injected) {
		t.Fatal("pipelined faulted run produced different bytes than clean run")
	}
}

// TestFaultedRunBitIdenticalToCleanRun: the strongest retry property — a
// run under a transient fault rate must produce a byte-identical file to
// the fault-free run, because every injected failure is resumed from where
// it cut the request, to completion. (The rate is
// set high enough that this small workload reliably draws faults; the
// FLASH-scale 1% version lives in internal/integration.)
func TestFaultedRunBitIdenticalToCleanRun(t *testing.T) {
	write := func(fsys *pfs.FS) []byte {
		t.Helper()
		err := mpi.Run(4, mpi.DefaultNet(), func(c *mpi.Comm) error {
			f, err := Open(c, fsys, "img", ModeRdWr|ModeCreate, nil)
			if err != nil {
				return err
			}
			v, err := mpitype.Vector(64, 512, 4*512, mpitype.Contig(1))
			if err != nil {
				return err
			}
			v, err = mpitype.Resized(v, 4*64*512)
			if err != nil {
				return err
			}
			if err := f.SetView(int64(c.Rank())*512, v); err != nil {
				return err
			}
			data := make([]byte, 64*512)
			for i := range data {
				data[i] = byte(i*31 + c.Rank()*7)
			}
			if err := f.WriteAtAll(0, data); err != nil {
				return err
			}
			return f.Close()
		})
		if err != nil {
			t.Fatal(err)
		}
		pf, _, err := fsys.Open("img", 0)
		if err != nil {
			t.Fatal(err)
		}
		img := make([]byte, pf.Size())
		sf := pfs.NewSerialFile(pf, 0)
		if _, err := sf.ReadAt(img, 0); err != nil {
			t.Fatal(err)
		}
		return img
	}
	clean := write(pfs.New(pfs.BlueHorizon()))
	faulty := pfs.New(pfs.BlueHorizon())
	in := fault.New(fault.Config{Seed: 99, ReadErrRate: 0.25, WriteErrRate: 0.25})
	faulty.SetFault(in)
	injected := write(faulty)
	if in.Injected() == 0 {
		t.Fatal("no faults injected; test proves nothing")
	}
	if !bytes.Equal(clean, injected) {
		t.Fatal("faulted run produced different bytes than clean run")
	}
}
