package core

import (
	"fmt"
	"testing"

	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/nctype"
)

// TestCommitWritesAndLedger counts what the two header commits ask of the
// file system and holds the header ledger to it. Create→EndDef finds an empty
// file: the root writes body and magic, 2 requests, the image once.
// Redef→EndDef and a data-mode attribute overwrite find a header to protect:
// journal, zero magic, body, magic — 4 requests, the image twice — and a size
// change that takes the journal off again, so however many recommits a file
// has seen it is as long as its header says. Either way nc_header_write_bytes is every byte the commit wrote
// (io_raw_bytes_written saw the same), and an open broadcasts the header's own
// bytes, not the probe that found it.
func TestCommitWritesAndLedger(t *testing.T) {
	fsys := testFS()
	// Room in the header, so the Redef below moves no data.
	info := mpi.NewInfo()
	info.Set("nc_header_align_size", "4096")
	runWorld(t, 2, func(c *mpi.Comm) error {
		st := iostat.New()
		c.Proc().SetStats(st)
		watched := []iostat.Counter{iostat.PfsWriteCalls, iostat.NCHeaderWriteBytes, iostat.IORawBytesWritten, iostat.NCHeaderCommits}
		base := make([]int64, len(watched))
		// step checks the counters' growth since the last step: on the root,
		// one commit of the given requests and bytes; elsewhere nothing.
		step := func(what string, calls, bytes int64) error {
			want := []int64{calls, bytes, bytes, 1}
			for i, k := range watched {
				got := st.Get(k) - base[i]
				base[i] += got
				if c.Rank() != 0 && got != 0 || c.Rank() == 0 && got != want[i] {
					return fmt.Errorf("rank %d, %s: %s grew by %d, root wants %d", c.Rank(), what, k, got, want[i])
				}
			}
			return nil
		}

		d, err := Create(c, fsys, "ledger.nc", nctype.Clobber, info)
		if err != nil {
			return err
		}
		y, _ := d.DefDim("y", 4)
		grid, _ := d.DefVar("grid", nctype.Int, []int{y})
		if err := d.PutAttr(grid, "units", nctype.Char, "m"); err != nil {
			return err
		}
		if err := d.EndDef(); err != nil {
			return err
		}
		n := d.Header().EncodedSize()
		if err := step("Create→EndDef", 2, n); err != nil {
			return err
		}

		if err := d.Redef(); err != nil {
			return err
		}
		if err := d.PutAttr(GlobalID, "history", nctype.Char, "redefined"); err != nil {
			return err
		}
		if err := d.EndDef(); err != nil {
			return err
		}
		n = d.Header().EncodedSize()
		journaled := func(n int64) int64 { return 2*n + 16 + 4 } // journal, zero magic, body, magic
		if err := step("Redef→EndDef", 4, journaled(n)); err != nil {
			return err
		}
		for _, units := range []string{"k", "g", "s"} {
			if err := d.PutAttr(grid, "units", nctype.Char, units); err != nil {
				return err
			}
			if err := step("data-mode PutAttr", 4, journaled(n)); err != nil {
				return err
			}
		}
		if size, err := d.f.Size(); err != nil || size != d.Header().FileSize() {
			return fmt.Errorf("after five commits the file is %d bytes (%v), its header declares %d", size, err, d.Header().FileSize())
		}
		if err := d.Close(); err != nil {
			return err
		}

		r, err := Open(c, fsys, "ledger.nc", nctype.NoWrite, info)
		if err != nil {
			return err
		}
		if got := st.Get(iostat.NCHeaderBcastBytes); got != n {
			return fmt.Errorf("rank %d: nc_header_bcast_bytes = %d, the header is %d bytes", c.Rank(), got, n)
		}
		if _, v, err := r.GetAttr(grid, "units"); err != nil || string(v.([]byte)) != "s" {
			return fmt.Errorf("rank %d: grid:units = %v, %v", c.Rank(), v, err)
		}
		return r.Close()
	})
}
