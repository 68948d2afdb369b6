package mpiio

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/pfs"
)

func testFS() *pfs.FS { return pfs.New(pfs.DefaultConfig()) }

func runWorld(t *testing.T, n int, fn func(*mpi.Comm) error) {
	t.Helper()
	if err := mpi.Run(n, mpi.DefaultNet(), fn); err != nil {
		t.Fatalf("world of %d: %v", n, err)
	}
}

// writeAt and readAt move buf through the independent calls at view
// offset off.
func writeAt(f *File, off int64, buf []byte) error {
	return f.WriteAtFrom(off, int64(len(buf)), Bytes(buf))
}

func readAt(f *File, off int64, buf []byte) error {
	return f.ReadAtInto(off, int64(len(buf)), Bytes(buf))
}

func TestOpenCreateModes(t *testing.T) {
	fsys := testFS()
	runWorld(t, 3, func(c *mpi.Comm) error {
		// Open of missing file fails on every rank.
		if _, err := Open(c, fsys, "missing", ModeRdWr, nil); !errors.Is(err, ErrNoSuchFile) {
			return fmt.Errorf("open missing: %v", err)
		}
		f, err := Open(c, fsys, "a", ModeRdWr|ModeCreate, nil)
		if err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		// Exclusive create of an existing file fails everywhere.
		if _, err := Open(c, fsys, "a", ModeRdWr|ModeCreate|ModeExcl, nil); !errors.Is(err, ErrExists) {
			return fmt.Errorf("excl create: %v", err)
		}
		// Reopen existing works.
		f, err = Open(c, fsys, "a", ModeRdOnly, nil)
		if err != nil {
			return err
		}
		return f.Close()
	})
}

func TestTruncateOnCreate(t *testing.T) {
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		f, err := Open(c, fsys, "t", ModeRdWr|ModeCreate, nil)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := f.WriteRaw([]byte("old content"), 0); err != nil {
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
		f, err = Open(c, fsys, "t", ModeRdWr|ModeCreate|ModeTrunc, nil)
		if err != nil {
			return err
		}
		sz, err := f.Size()
		if err != nil {
			return err
		}
		if sz != 0 {
			return fmt.Errorf("size after trunc = %d", sz)
		}
		return f.Close()
	})
}

func TestReadOnlyEnforced(t *testing.T) {
	fsys := testFS()
	runWorld(t, 1, func(c *mpi.Comm) error {
		f, _ := Open(c, fsys, "ro", ModeRdWr|ModeCreate, nil)
		f.WriteRaw([]byte("x"), 0)
		f.Close()
		f, err := Open(c, fsys, "ro", ModeRdOnly, nil)
		if err != nil {
			return err
		}
		if err := f.WriteRaw([]byte("y"), 0); !errors.Is(err, ErrReadOnly) {
			return fmt.Errorf("WriteRaw on RO: %v", err)
		}
		if err := writeAt(f, 0, []byte("y")); !errors.Is(err, ErrReadOnly) {
			return fmt.Errorf("WriteAtFrom on RO: %v", err)
		}
		if err := f.WriteAtAll(0, []byte("y")); !errors.Is(err, ErrReadOnly) {
			return fmt.Errorf("WriteAtAll on RO: %v", err)
		}
		return f.Close()
	})
}

func TestIndependentContiguous(t *testing.T) {
	fsys := testFS()
	runWorld(t, 4, func(c *mpi.Comm) error {
		f, err := Open(c, fsys, "f", ModeRdWr|ModeCreate, nil)
		if err != nil {
			return err
		}
		// Each rank writes its own 1 KiB block, identity view.
		data := bytes.Repeat([]byte{byte('A' + c.Rank())}, 1024)
		if err := writeAt(f, int64(c.Rank())*1024, data); err != nil {
			return err
		}
		f.Sync()
		got := make([]byte, 4*1024)
		if err := readAt(f, 0, got); err != nil {
			return err
		}
		for r := 0; r < 4; r++ {
			if got[r*1024] != byte('A'+r) || got[r*1024+1023] != byte('A'+r) {
				return fmt.Errorf("rank %d sees wrong data for block %d", c.Rank(), r)
			}
		}
		return f.Close()
	})
}

// viewFor builds the subarray filetype for a 1-D block partition of n bytes
// over size ranks.
func blockView(rank, size int, total int64) mpitype.Datatype {
	share := total / int64(size)
	d, err := mpitype.Subarray([]int64{total}, []int64{share}, []int64{int64(rank) * share}, 1)
	if err != nil {
		panic(err)
	}
	return d
}

func TestFileViewIndependent(t *testing.T) {
	fsys := testFS()
	const total = 8192
	runWorld(t, 4, func(c *mpi.Comm) error {
		f, err := Open(c, fsys, "v", ModeRdWr|ModeCreate, nil)
		if err != nil {
			return err
		}
		if err := f.SetView(0, blockView(c.Rank(), 4, total)); err != nil {
			return err
		}
		share := total / 4
		data := bytes.Repeat([]byte{byte(c.Rank() + 1)}, share)
		if err := writeAt(f, 0, data); err != nil {
			return err
		}
		c.Barrier()
		// Read back through the view.
		got := make([]byte, share)
		if err := readAt(f, 0, got); err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("rank %d: view read mismatch", c.Rank())
		}
		// And verify the raw layout.
		raw := make([]byte, total)
		if err := f.ReadRaw(raw, 0); err != nil {
			return err
		}
		for r := 0; r < 4; r++ {
			if raw[r*share] != byte(r+1) {
				return fmt.Errorf("raw byte %d = %d", r*share, raw[r*share])
			}
		}
		return f.Close()
	})
}

// stridedView interleaves ranks element-by-element: rank r owns bytes
// r, r+p, r+2p, ...
func stridedView(rank, size int, count int64) mpitype.Datatype {
	v, err := mpitype.Vector(count, 1, int64(size), mpitype.Contig(1))
	if err != nil {
		panic(err)
	}
	v, err = mpitype.Resized(v, count*int64(size))
	if err != nil {
		panic(err)
	}
	return v
}

func TestCollectiveWriteReadInterleaved(t *testing.T) {
	fsys := testFS()
	const perRank = 4096
	const p = 4
	runWorld(t, p, func(c *mpi.Comm) error {
		f, err := Open(c, fsys, "c", ModeRdWr|ModeCreate, nil)
		if err != nil {
			return err
		}
		if err := f.SetView(int64(c.Rank()), stridedView(c.Rank(), p, perRank)); err != nil {
			return err
		}
		data := make([]byte, perRank)
		for i := range data {
			data[i] = byte((c.Rank() + i) % 251)
		}
		if err := f.WriteAtAll(0, data); err != nil {
			return err
		}
		f.Sync()
		// Collective read back through the same view.
		got := make([]byte, perRank)
		if err := f.ReadAtAll(0, got); err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("rank %d: collective round trip mismatch", c.Rank())
		}
		// Cross-check the interleaving with a raw read on rank 0.
		if c.Rank() == 0 {
			raw := make([]byte, p*perRank)
			if err := f.ReadRaw(raw, 0); err != nil {
				return err
			}
			for i := 0; i < p*perRank; i++ {
				r := i % p
				k := i / p
				if raw[i] != byte((r+k)%251) {
					return fmt.Errorf("raw[%d] = %d, want %d", i, raw[i], byte((r+k)%251))
				}
			}
		}
		c.Barrier()
		return f.Close()
	})
}

func TestCollectiveMatchesIndependent(t *testing.T) {
	// The same strided pattern written collectively and independently must
	// produce byte-identical files.
	mkFile := func(collective bool) []byte {
		fsys := testFS()
		var img []byte
		err := mpi.Run(3, mpi.DefaultNet(), func(c *mpi.Comm) error {
			f, err := Open(c, fsys, "x", ModeRdWr|ModeCreate, nil)
			if err != nil {
				return err
			}
			if err := f.SetView(int64(c.Rank()*8), stridedView(c.Rank(), 3, 999)); err != nil {
				return err
			}
			data := make([]byte, 999)
			for i := range data {
				data[i] = byte(c.Rank()*100 + i%100)
			}
			if collective {
				err = f.WriteAtAll(0, data)
			} else {
				err = writeAt(f, 0, data)
			}
			if err != nil {
				return err
			}
			f.Sync()
			if c.Rank() == 0 {
				sz, _ := f.Size()
				img = make([]byte, sz)
				if err := f.ReadRaw(img, 0); err != nil {
					return err
				}
			}
			return f.Close()
		})
		if err != nil {
			panic(err)
		}
		return img
	}
	a := mkFile(true)
	b := mkFile(false)
	if !bytes.Equal(a, b) {
		// Find first difference for the report.
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		panic(fmt.Sprintf("collective and independent files differ at byte %d (lens %d/%d)", i, len(a), len(b)))
	}
}

func TestCollectiveWithIdleRanks(t *testing.T) {
	// Ranks with no data must still participate without deadlock.
	fsys := testFS()
	runWorld(t, 5, func(c *mpi.Comm) error {
		f, err := Open(c, fsys, "idle", ModeRdWr|ModeCreate, nil)
		if err != nil {
			return err
		}
		var data []byte
		if c.Rank() == 2 {
			data = []byte("only rank two writes")
			if err := f.SetView(100, mpitype.Contig(int64(len(data)))); err != nil {
				return err
			}
		}
		if err := f.WriteAtAll(0, data); err != nil {
			return err
		}
		f.Sync()
		got := make([]byte, 20)
		var rerr error
		if c.Rank() == 4 {
			rerr = f.ReadRaw(got, 100)
		}
		if rerr != nil {
			return rerr
		}
		if c.Rank() == 4 && string(got) != "only rank two writes" {
			return fmt.Errorf("got %q", got)
		}
		// All-empty collective must also complete.
		if err := f.WriteAtAll(0, nil); err != nil {
			return err
		}
		if err := f.ReadAtAll(0, nil); err != nil {
			return err
		}
		return f.Close()
	})
}

func TestCollectiveMultipleRounds(t *testing.T) {
	// Force several two-phase rounds with a tiny cb_buffer_size.
	fsys := testFS()
	info := mpi.NewInfo().Set("cb_buffer_size", "4096").Set("cb_nodes", "2")
	const per = 64 << 10
	runWorld(t, 4, func(c *mpi.Comm) error {
		f, err := Open(c, fsys, "rounds", ModeRdWr|ModeCreate, info)
		if err != nil {
			return err
		}
		if f.Hints().CBBufferSize != 4096 || f.Hints().CBNodes != 2 {
			return fmt.Errorf("hints not applied: %+v", f.Hints())
		}
		if err := f.SetView(0, blockView(c.Rank(), 4, 4*per)); err != nil {
			return err
		}
		data := make([]byte, per)
		rng := rand.New(rand.NewSource(int64(c.Rank())))
		rng.Read(data)
		if err := f.WriteAtAll(0, data); err != nil {
			return err
		}
		got := make([]byte, per)
		if err := f.ReadAtAll(0, got); err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("rank %d: multi-round round trip mismatch", c.Rank())
		}
		return f.Close()
	})
}

// TestSievingReadMatchesDirect: with 4 KiB sieving buffers, a view whose
// segments are partly shorter and partly longer than a window spans many
// windows per request, some of them one long segment alone, and the two
// ranks' segments interleave, so their read-modify-write windows overlap.
// Sieved, unsieved and collective writes of the same data leave
// byte-identical files, and every read — of the whole view, and from a view
// offset inside a segment — returns the written bytes.
func TestSievingReadMatchesDirect(t *testing.T) {
	const ranks, win = 2, 4096
	lens := []int64{100, 200, 37, 300, 12, 150, 5000, 60, 9000, 80, 40, win, 20}
	var views [ranks][]mpitype.Segment
	var end int64
	for i := 0; i < 60; i++ {
		n := lens[i%len(lens)]
		views[i%ranks] = append(views[i%ranks], mpitype.Segment{Off: end, Len: n})
		end += n + int64(50*(i%7))
	}
	var sieved []byte
	for _, mode := range []string{"sieved", "unsieved", "collective"} {
		fsys := testFS()
		ds := "enable"
		if mode == "unsieved" {
			ds = "disable"
		}
		info := mpi.NewInfo().Set("romio_ds_read", ds).Set("romio_ds_write", ds).
			Set("ind_rd_buffer_size", fmt.Sprint(win)).Set("ind_wr_buffer_size", fmt.Sprint(win))
		runWorld(t, ranks, func(c *mpi.Comm) error {
			c.Proc().SetStats(iostat.New())
			f, err := Open(c, fsys, "ds", ModeRdWr|ModeCreate, info)
			if err != nil {
				return err
			}
			if h := f.Hints(); h.IndRdBufferSize != win || h.IndWrBufferSize != win {
				return fmt.Errorf("sieving buffer hints not applied: %+v", h)
			}
			v, err := mpitype.FromSegments(views[c.Rank()], end)
			if err != nil {
				return err
			}
			if err := f.SetView(0, v); err != nil {
				return err
			}
			data := make([]byte, v.Size())
			for i := range data {
				data[i] = byte(c.Rank()*7 + i%31 + 1)
			}
			if mode == "collective" {
				err = f.WriteAtAll(0, data)
			} else {
				err = writeAt(f, 0, data)
			}
			if err != nil {
				return err
			}
			c.Barrier()
			got := make([]byte, len(data))
			if err := readAt(f, 0, got); err != nil {
				return err
			}
			if !bytes.Equal(got, data) {
				return fmt.Errorf("rank %d %s: whole-view read mismatch", c.Rank(), mode)
			}
			k := views[c.Rank()][0].Len + 17
			if err := readAt(f, k, got[k:]); err != nil {
				return err
			}
			if !bytes.Equal(got[k:], data[k:]) {
				return fmt.Errorf("rank %d %s: read from view offset %d mismatch", c.Rank(), mode, k)
			}
			st := c.Proc().Stats()
			if rmw, reads := st.Get(iostat.IOSieveRMW), st.Get(iostat.IOSieveReads); mode == "sieved" && (rmw < 2 || reads < 4) {
				return fmt.Errorf("rank %d: %d sieved writes and %d sieved reads, want a request over several windows", c.Rank(), rmw, reads)
			}
			return f.Close()
		})
		img := fileImage(t, fsys, "ds")
		if sieved == nil {
			sieved = img
		} else if !bytes.Equal(img, sieved) {
			t.Fatalf("the %s write left a different file than the sieved one", mode)
		}
	}
}

func TestSetSizeAndSize(t *testing.T) {
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		f, err := Open(c, fsys, "sz", ModeRdWr|ModeCreate, nil)
		if err != nil {
			return err
		}
		if err := f.SetSize(12345); err != nil {
			return err
		}
		sz, err := f.Size()
		if err != nil {
			return err
		}
		if sz != 12345 {
			return fmt.Errorf("size = %d", sz)
		}
		return f.Close()
	})
}

func TestClosedHandleRejectsOps(t *testing.T) {
	fsys := testFS()
	runWorld(t, 1, func(c *mpi.Comm) error {
		f, _ := Open(c, fsys, "cl", ModeRdWr|ModeCreate, nil)
		f.Close()
		if err := readAt(f, 0, make([]byte, 1)); !errors.Is(err, ErrClosed) {
			return fmt.Errorf("ReadAtInto after close: %v", err)
		}
		if err := f.WriteAtAll(0, nil); !errors.Is(err, ErrClosed) {
			return fmt.Errorf("WriteAtAll after close: %v", err)
		}
		if err := f.Close(); !errors.Is(err, ErrClosed) {
			return fmt.Errorf("double close: %v", err)
		}
		return nil
	})
}

func TestCollectiveFasterThanIndependentStrided(t *testing.T) {
	// The headline effect: a fine-grained interleaved write is much faster
	// collectively (two-phase) than independently, under the same cost
	// model.
	const p = 8
	const per = 1 << 20
	runCase := func(collective bool) float64 {
		fsys := testFS()
		var makespan float64
		err := mpi.Run(p, mpi.DefaultNet(), func(c *mpi.Comm) error {
			f, err := Open(c, fsys, "perf", ModeRdWr|ModeCreate, nil)
			if err != nil {
				return err
			}
			// 512-byte interleaving across ranks.
			v, _ := mpitype.Vector(per/512, 512, 512*p, mpitype.Contig(1))
			v, _ = mpitype.Resized(v, int64(per*p))
			if err := f.SetView(int64(c.Rank()*512), v); err != nil {
				return err
			}
			data := make([]byte, per)
			c.Proc().SetClock(0)
			fsys.ResetClock()
			c.Barrier()
			if collective {
				err = f.WriteAtAll(0, data)
			} else {
				err = writeAt(f, 0, data)
			}
			if err != nil {
				return err
			}
			end := c.AllreduceF64([]float64{c.Clock()}, mpi.OpMax)[0]
			if c.Rank() == 0 {
				makespan = end
			}
			return f.Close()
		})
		if err != nil {
			t.Fatal(err)
		}
		return makespan
	}
	coll := runCase(true)
	indep := runCase(false)
	if coll*2 > indep {
		t.Fatalf("collective (%.4fs) not clearly faster than independent (%.4fs) for strided writes", coll, indep)
	}
}
