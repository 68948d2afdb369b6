package mpiio

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpitype"
)

// TestSievingWriteContention: two ranks interleave fine-grained independent
// strided writes into the same region. Data sieving turns each into a
// read-modify-write of the covering window; without the RMW lock, one
// writer's read-modify-write would overwrite the other's bytes. The final
// file must contain both ranks' data exactly.
func TestSievingWriteContention(t *testing.T) {
	fsys := testFS()
	const blocks = 256
	const blockLen = 16
	runWorld(t, 2, func(c *mpi.Comm) error {
		f, err := Open(c, fsys, "rmw", ModeRdWr|ModeCreate, nil)
		if err != nil {
			return err
		}
		// Rank r owns blocks r, r+2, r+4, ... of 16 bytes.
		v, err := mpitype.Subarray([]int64{blocks, 2 * blockLen}, []int64{blocks, blockLen}, []int64{0, 0}, 1)
		if err != nil {
			return err
		}
		if err := f.SetView(int64(c.Rank()*blockLen), v); err != nil {
			return err
		}
		data := bytes.Repeat([]byte{byte('A' + c.Rank())}, blocks*blockLen)
		// Both ranks write concurrently through the sieving path.
		if err := writeAt(f, 0, data); err != nil {
			return err
		}
		c.Barrier()
		// Verify the full interleaving.
		raw := make([]byte, 2*blocks*blockLen)
		if err := f.ReadRaw(raw, 0); err != nil {
			return err
		}
		for b := 0; b < 2*blocks; b++ {
			want := byte('A' + b%2)
			for i := 0; i < blockLen; i++ {
				if raw[b*blockLen+i] != want {
					return fmt.Errorf("rank %d sees block %d byte %d = %q, want %q (lost update?)",
						c.Rank(), b, i, raw[b*blockLen+i], want)
				}
			}
		}
		return f.Close()
	})
}

// TestPlainWriteWaitsForSieveLock: with sieving on, a one-segment
// independent write waits for a sieving writer's range lock. Rank 0 holds
// the lock over a window, as a read-modify-write does between its read and
// its write-back; rank 1's write into the window must not finish before
// rank 0 lets go, or the write-back would cover it with the stale bytes.
func TestPlainWriteWaitsForSieveLock(t *testing.T) {
	fsys := testFS()
	locked, written := make(chan struct{}), make(chan struct{})
	runWorld(t, 2, func(c *mpi.Comm) error {
		f, err := Open(c, fsys, "rmw", ModeRdWr|ModeCreate, nil)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			f.pf.LockRMW(0, 64)
			close(locked)
			for i := 0; i < 1000; i++ {
				runtime.Gosched()
			}
			select {
			case <-written:
				err = fmt.Errorf("a one-segment write landed inside a window held for a read-modify-write")
			default:
			}
			f.pf.UnlockRMW(0, 64)
		} else {
			<-locked
			err = writeAt(f, 16, bytes.Repeat([]byte{'B'}, 16))
			close(written)
		}
		if err != nil {
			return err
		}
		return f.Close()
	})
}

// TestCollectiveReadMatchesIndependentRead: for a random strided view, the
// two-phase collective read must return exactly what independent (sieving)
// reads return.
func TestCollectiveReadMatchesIndependentRead(t *testing.T) {
	fsys := testFS()
	const per = 100 * 48
	runWorld(t, 3, func(c *mpi.Comm) error {
		f, err := Open(c, fsys, "eq", ModeRdWr|ModeCreate, nil)
		if err != nil {
			return err
		}
		// Populate with a deterministic pattern via raw writes from rank 0.
		if c.Rank() == 0 {
			img := make([]byte, 3*per)
			for i := range img {
				img[i] = byte(i*7 + i/251)
			}
			if err := f.WriteRaw(img, 0); err != nil {
				return err
			}
		}
		f.Sync()
		v, err := mpitype.Subarray([]int64{100, 3 * 48}, []int64{100, 48}, []int64{0, 0}, 1)
		if err != nil {
			return err
		}
		if err := f.SetView(int64(c.Rank()*48), v); err != nil {
			return err
		}
		coll := make([]byte, per)
		if err := f.ReadAtAll(0, coll); err != nil {
			return err
		}
		indep := make([]byte, per)
		if err := readAt(f, 0, indep); err != nil {
			return err
		}
		if !bytes.Equal(coll, indep) {
			return fmt.Errorf("rank %d: collective and independent reads differ", c.Rank())
		}
		return f.Close()
	})
}

// TestViewOffsetsWithinView: reading at a nonzero view offset must skip
// exactly that many data bytes of the view, not file bytes.
func TestViewOffsetsWithinView(t *testing.T) {
	fsys := testFS()
	runWorld(t, 1, func(c *mpi.Comm) error {
		f, err := Open(c, fsys, "off", ModeRdWr|ModeCreate, nil)
		if err != nil {
			return err
		}
		// View selects bytes at file offsets 0,1 then 10,11 then 20,21...
		v, err := mpitype.Subarray([]int64{10, 10}, []int64{10, 2}, []int64{0, 0}, 1)
		if err != nil {
			return err
		}
		img := make([]byte, 100)
		for i := range img {
			img[i] = byte(i)
		}
		if err := f.WriteRaw(img, 0); err != nil {
			return err
		}
		if err := f.SetView(0, v); err != nil {
			return err
		}
		got := make([]byte, 4)
		// Skip 3 view bytes (0,1,10) -> next are 11,20,21,30.
		if err := readAt(f, 3, got); err != nil {
			return err
		}
		want := []byte{11, 20, 21, 30}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("view-offset read = %v, want %v", got, want)
		}
		// Write at a view offset and check placement.
		if err := writeAt(f, 5, []byte{200, 201}); err != nil {
			return err
		}
		raw := make([]byte, 100)
		if err := f.ReadRaw(raw, 0); err != nil {
			return err
		}
		// View data bytes 5,6 are file offsets 21,30.
		if raw[21] != 200 || raw[30] != 201 {
			return fmt.Errorf("view-offset write landed at wrong place: raw[21]=%d raw[30]=%d", raw[21], raw[30])
		}
		return f.Close()
	})
}

// TestStripeAlignedDomains: interior aggregator boundaries must land on
// stripe multiples (the RMW-avoidance property).
func TestStripeAlignedDomains(t *testing.T) {
	fsys := testFS()
	stripe := fsys.Config().StripeSize
	runWorld(t, 4, func(c *mpi.Comm) error {
		f, err := Open(c, fsys, "al", ModeRdWr|ModeCreate, nil)
		if err != nil {
			return err
		}
		// An unaligned aggregate range: each rank's megabyte starts 12345
		// bytes into the file.
		if err := f.SetView(12345+int64(c.Rank())*(1<<20), contig(1<<20)); err != nil {
			return err
		}
		plan, ok, err := f.collectivePlan(mustView(f, 1<<20), nil, true)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("no plan")
		}
		for a := 1; a < plan.naggs; a++ {
			lo, _ := plan.window(a, 0)
			if lo%stripe != 0 {
				return fmt.Errorf("aggregator %d window starts at %d, not stripe-aligned", a, lo)
			}
		}
		return f.Close()
	})
}

func mustView(f *File, n int64) extents {
	x, err := f.viewSegments(0, n)
	if err != nil {
		panic(err)
	}
	return x
}
