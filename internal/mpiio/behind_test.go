package mpiio

import (
	"fmt"
	"testing"

	"pnetcdf/internal/fault"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
)

// TestRetriedWriteLeavesTheLinkLast: a write behind settles the rank's clock
// when its bytes have left the link, and a retried write's bytes leave at its
// last attempt, after every backoff — so backoff is never hidden behind the
// servers. At a 1% write-fault rate, every independent and every collective
// write advances the rank's clock by at least the backoff its retries cost.
func TestRetriedWriteLeavesTheLinkLast(t *testing.T) {
	const n, writes = 64 << 10, 200
	fsys := testFS()
	fsys.SetFault(fault.New(fault.Config{Seed: 3, WriteErrRate: 0.01}))
	runWorld(t, 1, func(c *mpi.Comm) error {
		st := iostat.New()
		c.Proc().SetStats(st)
		f, err := Open(c, fsys, "retried", ModeRdWr|ModeCreate, nil)
		if err != nil {
			return err
		}
		buf := make([]byte, n)
		retried := 0
		for i := 0; i < 2*writes; i++ {
			write := func(off int64, buf []byte) error { return writeAt(f, off, buf) }
			if i%2 == 1 {
				write = f.WriteAtAll
			}
			t0, b0 := c.Clock(), st.Get(iostat.IOBackoffTimeNs)
			if err := write(int64(i%8)*n, buf); err != nil {
				return err
			}
			backoff := float64(st.Get(iostat.IOBackoffTimeNs)-b0) / 1e9
			if backoff > 0 {
				retried++
			}
			if advance := c.Clock() - t0; advance < backoff-1e-9 {
				return fmt.Errorf("write %d: the clock advanced %g s, its retries backed off %g s", i, advance, backoff)
			}
		}
		if retried == 0 {
			return fmt.Errorf("no write of %d retried: the fault rate exercises nothing", 2*writes)
		}
		return f.Close()
	})
}

// TestManyTinyWritesKeepTheFIFOCompact: the FIFO is bounded in bytes, not
// in writes, so 4-byte independent writes queue tens of thousands of
// entries. At a 4 KiB budget every write past the first thousand overflows
// it and settles the oldest; at a 256 KiB budget Close settles all 65 536 at
// once. Through both, the settled prefix of the FIFO stays under half its
// slice — the condition that makes a settled write cost O(1) moves (a FIFO
// that shifts its whole tail per settled write drains these in seconds, not
// milliseconds) — and Close leaves the clock past every write's end with
// nothing in flight.
func TestManyTinyWritesKeepTheFIFOCompact(t *testing.T) {
	const writes = 1 << 16
	for _, budget := range []int{4 << 10, 4 * writes} {
		fsys := testFS()
		info := mpi.NewInfo().Set("ind_wr_buffer_size", fmt.Sprint(budget)).
			Set("romio_ds_write", "disable")
		runWorld(t, 1, func(c *mpi.Comm) error {
			f, err := Open(c, fsys, "tiny", ModeRdWr|ModeCreate, info)
			if err != nil {
				return err
			}
			buf := make([]byte, 4)
			var lastEnd float64
			for i := 0; i < writes; i++ {
				if err := writeAt(f, int64(i)*4, buf); err != nil {
					return err
				}
				b := &f.behind
				if b.bytes > int64(budget) {
					return fmt.Errorf("budget %d: %d bytes in flight after write %d", budget, b.bytes, i)
				}
				if 2*b.head >= len(b.q) && b.head > 0 {
					return fmt.Errorf("budget %d: after write %d, %d of the FIFO's %d entries are settled",
						budget, i, b.head, len(b.q))
				}
				if n := len(b.q); n > b.head {
					lastEnd = b.q[n-1].end
				}
			}
			if err := f.Close(); err != nil {
				return err
			}
			if f.behind.bytes != 0 || f.behind.head != len(f.behind.q) {
				return fmt.Errorf("budget %d: %d bytes still in flight after Close", budget, f.behind.bytes)
			}
			if c.Clock() < lastEnd {
				return fmt.Errorf("budget %d: Close returned at %g, before the last write's end %g", budget, c.Clock(), lastEnd)
			}
			return nil
		})
	}
}
