package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"pnetcdf/internal/fault"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
)

// TestCommitWritesAndLedger counts what the two header commits ask of the
// file system and holds the header ledger to it. Create→EndDef finds an empty
// file: the root writes the image with its magic zeroed, then the magic, 2
// requests, n + 4 bytes.
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
		if err := step("Create→EndDef", 2, n+4); err != nil { // image with zeroed magic, magic
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

// TestFirstCommitStartsOnAStripe: a header longer than a stripe goes down in
// two requests — the image from byte 0 with its magic zeroed, then the magic
// — so the file system reads back two blocks, the tail's and stripe 0 under
// the magic, not also stripe 0 under the body's head. The file is the serial
// library's to the byte.
func TestFirstCommitStartsOnAStripe(t *testing.T) {
	fsys := testFS()
	history := strings.Repeat("a long history ", int(fsys.Config().StripeSize)/10)
	define := func(d interface {
		DefDim(string, int64) (int, error)
		DefVar(string, nctype.Type, []int) (int, error)
		PutAttr(int, string, nctype.Type, any) error
	}) error {
		x, err := d.DefDim("x", 4)
		if err != nil {
			return err
		}
		if _, err := d.DefVar("grid", nctype.Int, []int{x}); err != nil {
			return err
		}
		return d.PutAttr(GlobalID, "history", nctype.Char, history)
	}
	var size int64
	runWorld(t, 2, func(c *mpi.Comm) error {
		st := iostat.New()
		c.Proc().SetStats(st)
		d, err := Create(c, fsys, "wide.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		if err := define(d); err != nil {
			return err
		}
		before := [2]int64{st.Get(iostat.PfsWriteCalls), st.Get(iostat.PfsRMWBlocks)}
		if err := d.EndDef(); err != nil {
			return err
		}
		got := [2]int64{st.Get(iostat.PfsWriteCalls) - before[0], st.Get(iostat.PfsRMWBlocks) - before[1]}
		if n := d.Header().EncodedSize(); c.Rank() == 0 && (n <= fsys.Config().StripeSize || got != [2]int64{2, 2}) {
			return fmt.Errorf("a %d-byte header: %d writes and %d RMW blocks, want 2 and 2", n, got[0], got[1])
		}
		if c.Rank() == 0 {
			size = d.Header().FileSize()
		}
		return d.Close()
	})
	ms := &netcdf.MemStore{}
	s, err := netcdf.Create(ms, nctype.Clobber)
	if err != nil {
		t.Fatal(err)
	}
	if err := define(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, fsys, "wide.nc"); int64(len(got)) != size || !bytes.Equal(got, ms.Data[:size]) {
		t.Fatalf("the %d-byte file differs from the serial library's %d bytes", len(got), len(ms.Data))
	}
}

// TestEndDefSendsNoHeader: EndDef settles consistency on header digests, so
// what a rank other than the root sends during it is a few reduction vectors
// whatever the header's size: under 1 KiB for a 100-byte header and for a
// 440 KB one.
func TestEndDefSendsNoHeader(t *testing.T) {
	fsys := testFS()
	for _, nvars := range []int{1, 4096} {
		runWorld(t, 8, func(c *mpi.Comm) error {
			st := iostat.New()
			c.Proc().SetStats(st)
			d, err := Create(c, fsys, fmt.Sprintf("digest%d.nc", nvars), nctype.Clobber, nil)
			if err != nil {
				return err
			}
			x, _ := d.DefDim("x", 4)
			for i := 0; i < nvars; i++ {
				v, err := d.DefVar(fmt.Sprintf("variable_%05d", i), nctype.Float, []int{x})
				if err != nil {
					return err
				}
				if nvars > 1 {
					if err := d.PutAttr(v, "units", nctype.Char, "m s-1 kg"); err != nil {
						return err
					}
					if err := d.PutAttr(v, "scale_factor", nctype.Double, []float64{float64(i)}); err != nil {
						return err
					}
				}
			}
			base := st.Get(iostat.MPIBytesSent)
			if err := d.EndDef(); err != nil {
				return err
			}
			if sent := st.Get(iostat.MPIBytesSent) - base; c.Rank() != 0 && sent >= 1<<10 {
				return fmt.Errorf("rank %d sent %d B in the EndDef of a %d-byte header, want < 1 KiB",
					c.Rank(), sent, d.Header().EncodedSize())
			}
			return d.Close()
		})
	}
}

// TestEndDefFillFailureIsCollective: the root commits the header and then
// fills the variables, and one agreement settles both. A fill write that
// crashes is the root's fault.ErrCrashed and every other rank's
// mpi.ErrPeerFailed, not a wait in a barrier the root never reaches.
func TestEndDefFillFailureIsCollective(t *testing.T) {
	fsys := testFS()
	inj := fault.New(fault.Config{Seed: 1})
	fsys.SetFault(inj)
	// The header is a few dozen bytes and the 1 MiB variable begins on a
	// stripe boundary before 512 KiB, so the crash point lies in the fill.
	inj.ArmCrash(512<<10, false)
	runWorld(t, 4, func(c *mpi.Comm) error {
		d, err := Create(c, fsys, "fill.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		x, _ := d.DefDim("x", 1<<17)
		if _, err := d.DefVar("v", nctype.Double, []int{x}); err != nil {
			return err
		}
		d.SetFill(true)
		want := mpi.ErrPeerFailed
		if c.Rank() == 0 {
			want = fault.ErrCrashed
		}
		if err := d.EndDef(); !errors.Is(err, want) {
			return fmt.Errorf("rank %d: EndDef = %v, want %v", c.Rank(), err, want)
		}
		return nil
	})
	if inj.CrashArmed() {
		t.Fatal("the crash point was never reached")
	}
}
