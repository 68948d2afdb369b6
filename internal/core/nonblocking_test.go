package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"pnetcdf/internal/cdf"
	"pnetcdf/internal/fault"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
	"pnetcdf/internal/pfs"
)

// A WaitAll that fails must consume the queue, so a retry after the fault
// clears runs an empty batch instead of double-applying the writes.
func TestWaitAllErrorClearsQueueNoDuplicateWrite(t *testing.T) {
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		d, _, grid, err := createStandard(c, fsys, "waerr.nc")
		if err != nil {
			return err
		}
		start := []int64{int64(c.Rank() * 2), 0}
		count := []int64{2, 8}
		baseline := make([]int32, 16)
		for i := range baseline {
			baseline[i] = int32(100 + c.Rank()*16 + i)
		}
		if err := d.PutVaraAll(grid, start, count, baseline); err != nil {
			return err
		}
		// Every subsequent pfs write fails; queue an update and watch the
		// fused collective write fail identically on all ranks.
		c.Barrier()
		if c.Rank() == 0 {
			fsys.SetFault(fault.New(fault.Config{Seed: 11, WriteErrRate: 1}))
		}
		c.Barrier()
		updated := make([]int32, 16)
		for i := range updated {
			updated[i] = int32(-(i + 1))
		}
		if _, err := d.IPutVara(grid, start, count, updated); err != nil {
			return err
		}
		werr := d.WaitAll()
		if werr == nil {
			return errors.New("WaitAll with failing writes returned nil")
		}
		if !errors.Is(werr, fault.ErrRetriesExhausted) && !errors.Is(werr, mpi.ErrPeerFailed) {
			return fmt.Errorf("unexpected WaitAll error: %v", werr)
		}
		if n := d.PendingRequests(); n != 0 {
			return fmt.Errorf("queue holds %d requests after failed WaitAll", n)
		}
		// Fault clears. Recover with a blocking write of known values, then
		// retry WaitAll: if the failed batch were still queued, the retry
		// would replay `updated` over the recovery data.
		c.Barrier()
		if c.Rank() == 0 {
			fsys.SetFault(nil)
		}
		c.Barrier()
		recovery := make([]int32, 16)
		for i := range recovery {
			recovery[i] = int32(500 + c.Rank()*16 + i)
		}
		if err := d.PutVaraAll(grid, start, count, recovery); err != nil {
			return err
		}
		if err := d.WaitAll(); err != nil {
			return fmt.Errorf("retried WaitAll after fault cleared: %v", err)
		}
		got := make([]int32, 16)
		if err := d.GetVaraAll(grid, start, count, got); err != nil {
			return err
		}
		for i := range got {
			if got[i] != recovery[i] {
				return fmt.Errorf("rank %d: grid[%d] = %d after retried WaitAll, want recovery value %d (duplicate write replayed?)",
					c.Rank(), i, got[i], recovery[i])
			}
		}
		return d.Close()
	})
}

// IPutVara of out-of-range values must behave like the blocking path:
// wrapped values land in the file and NC_ERANGE is reported — deferred to
// WaitAll rather than dropped.
func TestNonblockingRangeErrorParity(t *testing.T) {
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		d, _, grid, err := createStandard(c, fsys, "range.nc")
		if err != nil {
			return err
		}
		huge := []int64{1 << 40, -3, 1<<40 + 7, 4, 5, 6, 7, 8}
		count := []int64{1, 8}
		// Blocking reference: rows 0..1.
		bStart := []int64{int64(c.Rank()), 0}
		if err := d.PutVaraAll(grid, bStart, count, huge); !errors.Is(err, cdf.ErrRange) {
			return fmt.Errorf("blocking PutVaraAll out-of-range: %v", err)
		}
		// Nonblocking path: rows 2..3, same values.
		nbStart := []int64{int64(2 + c.Rank()), 0}
		if _, err := d.IPutVara(grid, nbStart, count, huge); err != nil {
			return fmt.Errorf("IPutVara must defer the range error, got %v", err)
		}
		if err := d.WaitAll(); !errors.Is(err, cdf.ErrRange) {
			return fmt.Errorf("WaitAll after out-of-range IPutVara: %v", err)
		}
		if n := d.PendingRequests(); n != 0 {
			return fmt.Errorf("queue holds %d requests after WaitAll", n)
		}
		blocking := make([]int32, 8)
		if err := d.GetVaraAll(grid, bStart, count, blocking); err != nil {
			return err
		}
		nonblocking := make([]int32, 8)
		if err := d.GetVaraAll(grid, nbStart, count, nonblocking); err != nil {
			return err
		}
		for i := range blocking {
			if blocking[i] != nonblocking[i] {
				return fmt.Errorf("rank %d elem %d: blocking wrapped to %d, nonblocking to %d",
					c.Rank(), i, blocking[i], nonblocking[i])
			}
		}
		return d.Close()
	})
}

// A blocking collective put converts while MPI-IO packs, not before: a rank
// whose float64 values overflow Float still takes part in the whole
// collective, its wrapped values land, and NC_ERANGE comes back to it alone
// once the write is done. The variable's bytes are the serial library's.
func TestBlockingRangeErrorAfterCollective(t *testing.T) {
	vals := []float64{1, 2e40, -3, -4e39, 5.5, 6, 7, math.MaxFloat64, 9, 10, 11, 12, 13, 14, 15, 16}
	serial := &netcdf.MemStore{}
	s, err := netcdf.Create(serial, nctype.Clobber)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := s.DefDim("x", int64(len(vals)))
	if _, err := s.DefVar("f", nctype.Float, []int{x}); err != nil {
		t.Fatal(err)
	}
	if err := s.EndDef(); err != nil {
		t.Fatal(err)
	}
	if err := s.PutVara(0, []int64{0}, []int64{int64(len(vals))}, vals); !errors.Is(err, cdf.ErrRange) {
		t.Fatalf("serial put: %v, want NC_ERANGE", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sv := s.Header().Vars[0]
	want := serial.Data[sv.Begin : sv.Begin+sv.VSize]

	fsys := testFS()
	var begin int64
	runWorld(t, 2, func(c *mpi.Comm) error {
		d, err := Create(c, fsys, "erange.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		x, _ := d.DefDim("x", int64(len(vals)))
		if _, err := d.DefVar("f", nctype.Float, []int{x}); err != nil {
			return err
		}
		if err := d.EndDef(); err != nil {
			return err
		}
		half := int64(len(vals) / 2)
		err = d.PutVaraAll(0, []int64{int64(c.Rank()) * half}, []int64{half}, vals[int64(c.Rank())*half:])
		switch {
		case c.Rank() == 0 && !errors.Is(err, cdf.ErrRange):
			return fmt.Errorf("rank 0 (out-of-range values): %v, want NC_ERANGE", err)
		case c.Rank() == 1 && err != nil:
			return fmt.Errorf("rank 1 (in-range values): %v, want nil", err)
		}
		if c.Rank() == 0 {
			begin = d.Header().Vars[0].Begin
		}
		return d.Close()
	})
	pf, _, err := fsys.Open("erange.nc", 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if _, err := pfs.NewSerialFile(pf, 0).ReadAt(got, begin); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("variable bytes %x, the serial library writes %x", got, want)
	}
}

// IGetVara/WaitAll must serve prefetched variables from the local copy, like
// the blocking read path does.
func TestWaitAllServesPrefetchedReads(t *testing.T) {
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		d, _, grid, err := createStandard(c, fsys, "pfnb.nc")
		if err != nil {
			return err
		}
		vals := make([]int32, 32)
		for i := range vals {
			vals[i] = int32(i * 7)
		}
		if err := d.PutVaraAll(grid, []int64{0, 0}, []int64{4, 8}, vals); err != nil {
			return err
		}
		if err := d.Close(); err != nil {
			return err
		}
		info := mpi.NewInfo().Set("nc_prefetch_vars", "grid")
		r, err := Open(c, fsys, "pfnb.nc", nctype.NoWrite, info)
		if err != nil {
			return err
		}
		if len(r.PrefetchedVars()) != 1 {
			return fmt.Errorf("prefetched %v", r.PrefetchedVars())
		}
		// Many queued reads served from cache must cost ~no virtual time
		// (a file read would pay pfs latency every WaitAll).
		t0 := c.Clock()
		got := make([]int32, 8)
		for i := 0; i < 50; i++ {
			row := int64(i % 4)
			if _, err := r.IGetVara(grid, []int64{row, 0}, []int64{1, 8}, got); err != nil {
				return err
			}
			if err := r.WaitAll(); err != nil {
				return err
			}
			for j := range got {
				if got[j] != int32((int(row)*8+j)*7) {
					return fmt.Errorf("cached IGetVara row %d = %v", row, got)
				}
			}
		}
		if cached := c.Clock() - t0; cached > 0.01 {
			return fmt.Errorf("cached nonblocking reads cost %.4fs of virtual time", cached)
		}
		return r.Close()
	})
}

// A blocking read of a variable with a queued (un-waited) write would
// observe stale file bytes; the guard turns that silent staleness into
// nctype.ErrPending on every rank, even when only one rank has the queued
// write.
func TestBlockingReadDuringPendingWriteRefused(t *testing.T) {
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		d, _, grid, err := createStandard(c, fsys, "guard.nc")
		if err != nil {
			return err
		}
		if err := d.PutVaraAll(grid, []int64{0, 0}, []int64{4, 8}, make([]int32, 32)); err != nil {
			return err
		}
		fresh := []int32{9, 9, 9, 9, 9, 9, 9, 9}
		if c.Rank() == 0 {
			if _, err := d.IPutVara(grid, []int64{0, 0}, []int64{1, 8}, fresh); err != nil {
				return err
			}
		}
		// Collective read: all ranks must agree to refuse, or the rank
		// without a queued write would proceed into the collective alone.
		got := make([]int32, 8)
		if err := d.GetVaraAll(grid, []int64{1, 0}, []int64{1, 8}, got); !errors.Is(err, nctype.ErrPending) {
			return fmt.Errorf("rank %d: collective read during pending write: %v", c.Rank(), err)
		}
		// Independent read: the guard is local to the rank with the queue.
		if err := d.BeginIndepData(); err != nil {
			return err
		}
		ierr := d.GetVara(grid, []int64{1, 0}, []int64{1, 8}, got)
		if c.Rank() == 0 {
			if !errors.Is(ierr, nctype.ErrPending) {
				return fmt.Errorf("rank 0 independent read during pending write: %v", ierr)
			}
		} else if ierr != nil {
			return fmt.Errorf("rank %d independent read with clean queue: %v", c.Rank(), ierr)
		}
		if err := d.EndIndepData(); err != nil {
			return err
		}
		// After WaitAll lands the write, the read succeeds and sees it.
		if err := d.WaitAll(); err != nil {
			return err
		}
		if err := d.GetVaraAll(grid, []int64{0, 0}, []int64{1, 8}, got); err != nil {
			return err
		}
		for i := range got {
			if got[i] != 9 {
				return fmt.Errorf("rank %d: grid row 0 = %v after WaitAll", c.Rank(), got)
			}
		}
		return d.Close()
	})
}
