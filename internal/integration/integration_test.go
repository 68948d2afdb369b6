// Package integration runs cross-layer scenarios spanning the whole stack:
// parallel writers against serial readers, decomposition changes between
// write and read, define-mode cycles with live data, large-file (CDF-2)
// handling, hint sweeps, and randomized cross-library fuzzing.
package integration

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"pnetcdf/internal/cdf"
	"pnetcdf/internal/core"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
	"pnetcdf/internal/pfs"
)

func newFS() *pfs.FS { return pfs.New(pfs.BlueHorizon()) }

// TestCDF2LargeOffsets builds a CDF-2 file whose second variable begins
// beyond 2 GiB and verifies access to it from multiple processes. Discard
// keeps memory flat; correctness is verified through the retained header
// and small probe writes.
func TestCDF2LargeOffsets(t *testing.T) {
	cfg := pfs.BlueHorizon()
	cfg.Discard = true
	fsys := pfs.New(cfg)
	err := mpi.Run(2, mpi.DefaultNet(), func(c *mpi.Comm) error {
		d, err := core.Create(c, fsys, "big.nc", nctype.Bit64Offset, nil)
		if err != nil {
			return err
		}
		z, _ := d.DefDim("z", 640)
		y, _ := d.DefDim("y", 1024)
		x, _ := d.DefDim("x", 1024)
		big, err := d.DefVar("big", nctype.Float, []int{z, y, x}) // 2.5 GiB
		if err != nil {
			return err
		}
		small, err := d.DefVar("tail", nctype.Int, []int{x})
		if err != nil {
			return err
		}
		if err := d.EndDef(); err != nil {
			return err
		}
		h := d.Header()
		if h.Vars[small].Begin < (1 << 31) {
			return fmt.Errorf("tail begins at %d, expected beyond 2 GiB", h.Vars[small].Begin)
		}
		// Write a sliver of the big variable and the small one (small writes
		// are retained even in Discard mode).
		if err := d.PutVaraAll(big, []int64{639, 1023, 0}, []int64{1, 1, 4},
			[]float32{1, 2, 3, 4}); err != nil {
			return err
		}
		vals := make([]int32, 512)
		for i := range vals {
			vals[i] = int32(i ^ 0x55)
		}
		if err := d.PutVaraAll(small, []int64{int64(c.Rank() * 512)}, []int64{512}, vals); err != nil {
			return err
		}
		got := make([]int32, 4)
		if err := d.GetVaraAll(small, []int64{1000}, []int64{4}, got); err != nil {
			return err
		}
		for i := range got {
			if got[i] != int32((1000-512+i)^0x55) {
				return fmt.Errorf("tail[%d] = %d", 1000+i, got[i])
			}
		}
		return d.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRedefCycleWithDataUnderLoad interleaves define-mode cycles with
// parallel data access.
func TestRedefCycleWithDataUnderLoad(t *testing.T) {
	fsys := newFS()
	err := mpi.Run(4, mpi.DefaultNet(), func(c *mpi.Comm) error {
		d, err := core.Create(c, fsys, "cycle.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		x, _ := d.DefDim("x", 16)
		v0, _ := d.DefVar("v0", nctype.Int, []int{x})
		if err := d.EndDef(); err != nil {
			return err
		}
		vals := make([]int32, 4)
		for i := range vals {
			vals[i] = int32(c.Rank()*10 + i)
		}
		if err := d.PutVaraAll(v0, []int64{int64(c.Rank() * 4)}, []int64{4}, vals); err != nil {
			return err
		}
		// Three define cycles, each adding a variable and rewriting data.
		for cycle := 1; cycle <= 3; cycle++ {
			if err := d.Redef(); err != nil {
				return err
			}
			name := fmt.Sprintf("v%d", cycle)
			vn, err := d.DefVar(name, nctype.Float, []int{x})
			if err != nil {
				return err
			}
			if err := d.PutAttr(vn, "cycle", nctype.Int, int32(cycle)); err != nil {
				return err
			}
			if err := d.EndDef(); err != nil {
				return err
			}
			fv := make([]float32, 4)
			for i := range fv {
				fv[i] = float32(cycle*100 + c.Rank()*10 + i)
			}
			if err := d.PutVaraAll(vn, []int64{int64(c.Rank() * 4)}, []int64{4}, fv); err != nil {
				return err
			}
			// v0 must survive every relocation.
			got := make([]int32, 4)
			if err := d.GetVaraAll(v0, []int64{int64(c.Rank() * 4)}, []int64{4}, got); err != nil {
				return err
			}
			for i := range got {
				if got[i] != int32(c.Rank()*10+i) {
					return fmt.Errorf("cycle %d: v0 lost: %v", cycle, got)
				}
			}
		}
		return d.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Final structure check through the serial library.
	pf, _, _ := fsys.Open("cycle.nc", 0)
	sd, err := netcdf.Open(pfs.NewSerialFile(pf, 0), nctype.NoWrite)
	if err != nil {
		t.Fatal(err)
	}
	if sd.NumVars() != 4 {
		t.Fatalf("vars = %d", sd.NumVars())
	}
	f3 := make([]float32, 16)
	if err := sd.GetVar(sd.VarID("v3"), f3); err != nil {
		t.Fatal(err)
	}
	if f3[5] != 310+1 {
		t.Fatalf("v3[5] = %v", f3[5])
	}
}

// TestRedefRecordSizeRefreshesViews: a Redef that adds a record variable
// changes the record size, so a put of the same shape to the first record
// variable after it must not reuse the view flattened before it. The
// parallel file must equal the one the serial library writes through the
// same calls.
func TestRedefRecordSizeRefreshesViews(t *testing.T) {
	const nprocs, x = 2, 4
	vals := func(pass, rank int) []int32 {
		out := make([]int32, 2*x/nprocs)
		for i := range out {
			out[i] = int32(pass*100 + rank*10 + i)
		}
		return out
	}
	// The same calls in both libraries: a(t, x) gets records 0 and 1, b(t,
	// x) joins the record section, then a's records are written again.
	type lib interface {
		DefDim(name string, size int64) (int, error)
		DefVar(name string, typ nctype.Type, dimids []int) (int, error)
		Redef() error
		EndDef() error
	}
	define := func(d lib) (a, rec, xd int, err error) {
		if rec, err = d.DefDim("t", 0); err != nil {
			return
		}
		if xd, err = d.DefDim("x", x); err != nil {
			return
		}
		if a, err = d.DefVar("a", nctype.Int, []int{rec, xd}); err != nil {
			return
		}
		err = d.EndDef()
		return
	}
	addB := func(d lib, rec, xd int) error {
		if err := d.Redef(); err != nil {
			return err
		}
		if _, err := d.DefVar("b", nctype.Int, []int{rec, xd}); err != nil {
			return err
		}
		return d.EndDef()
	}

	fsys := newFS()
	err := mpi.Run(nprocs, mpi.DefaultNet(), func(c *mpi.Comm) error {
		d, err := core.Create(c, fsys, "recsize.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		a, rec, xd, err := define(d)
		if err != nil {
			return err
		}
		start, count := []int64{0, int64(c.Rank() * x / nprocs)}, []int64{2, x / nprocs}
		if err := d.PutVaraAll(a, start, count, vals(1, c.Rank())); err != nil {
			return err
		}
		if err := addB(d, rec, xd); err != nil {
			return err
		}
		if err := d.PutVaraAll(a, start, count, vals(2, c.Rank())); err != nil {
			return err
		}
		return d.Close()
	})
	if err != nil {
		t.Fatal(err)
	}

	store := &netcdf.MemStore{}
	sd, err := netcdf.Create(store, nctype.Clobber)
	if err != nil {
		t.Fatal(err)
	}
	a, rec, xd, err := define(sd)
	if err != nil {
		t.Fatal(err)
	}
	put := func(pass int) {
		for rank := 0; rank < nprocs; rank++ {
			start, count := []int64{0, int64(rank * x / nprocs)}, []int64{2, x / nprocs}
			if err := sd.PutVara(a, start, count, vals(pass, rank)); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(1)
	if err := addB(sd, rec, xd); err != nil {
		t.Fatal(err)
	}
	put(2)
	if err := sd.Close(); err != nil {
		t.Fatal(err)
	}
	if img := readPFSFile(t, fsys, "recsize.nc"); !bytes.Equal(img, store.Data) {
		t.Fatalf("parallel file (%d B) differs from the serial library's (%d B)", len(img), len(store.Data))
	}
}

// TestCDLToParallelPipeline builds a small station schema serially, then
// extends the dataset in parallel (appending records), then reads it back
// serially.
func TestCDLToParallelPipeline(t *testing.T) {
	fsys := newFS()
	pf, _ := fsys.Create("station.nc", 0)
	sd, err := netcdf.Create(pfs.NewSerialFile(pf, 0), nctype.Clobber)
	if err != nil {
		t.Fatal(err)
	}
	tdim, _ := sd.DefDim("time", 0)
	sdim, _ := sd.DefDim("s", 4)
	obs, err := sd.DefVar("obs", nctype.Float, []int{tdim, sdim})
	if err != nil {
		t.Fatal(err)
	}
	if err := sd.PutAttr(obs, "units", nctype.Char, "degC"); err != nil {
		t.Fatal(err)
	}
	if err := sd.EndDef(); err != nil {
		t.Fatal(err)
	}
	if err := sd.PutVara(obs, []int64{0, 0}, []int64{1, 4}, []float32{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := sd.Close(); err != nil {
		t.Fatal(err)
	}
	// Parallel append of 3 more records.
	err = mpi.Run(4, mpi.DefaultNet(), func(c *mpi.Comm) error {
		d, err := core.Open(c, fsys, "station.nc", nctype.Write, nil)
		if err != nil {
			return err
		}
		if d.NumRecs() != 1 {
			return fmt.Errorf("NumRecs = %d", d.NumRecs())
		}
		for rec := int64(1); rec <= 3; rec++ {
			val := []float32{float32(rec*10 + int64(c.Rank()))}
			if err := d.PutVaraAll(d.VarID("obs"), []int64{rec, int64(c.Rank())}, []int64{1, 1}, val); err != nil {
				return err
			}
		}
		if d.NumRecs() != 4 {
			return fmt.Errorf("NumRecs after append = %d", d.NumRecs())
		}
		return d.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Verify serially.
	pf2, _, _ := fsys.Open("station.nc", 0)
	rd, err := netcdf.Open(pfs.NewSerialFile(pf2, 0), nctype.NoWrite)
	if err != nil {
		t.Fatal(err)
	}
	if rd.NumRecs() != 4 {
		t.Fatalf("final NumRecs = %d", rd.NumRecs())
	}
	all := make([]float32, 16)
	if err := rd.GetVar(rd.VarID("obs"), all); err != nil {
		t.Fatal(err)
	}
	if all[0] != 1 || all[3] != 4 { // serial record
		t.Fatalf("record 0 = %v", all[:4])
	}
	if all[4+2] != 12 || all[12+3] != 33 { // appended records
		t.Fatalf("appended = %v", all[4:])
	}
}

// TestManyVariablesManyRanks stresses the header machinery: 150 variables,
// 8 ranks, round-robin writes, serial verification.
func TestManyVariablesManyRanks(t *testing.T) {
	fsys := newFS()
	const nvars = 150
	err := mpi.Run(8, mpi.DefaultNet(), func(c *mpi.Comm) error {
		d, err := core.Create(c, fsys, "many.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		x, _ := d.DefDim("x", 8)
		ids := make([]int, nvars)
		for i := 0; i < nvars; i++ {
			ids[i], err = d.DefVar(fmt.Sprintf("v%03d", i), nctype.Int, []int{x})
			if err != nil {
				return err
			}
		}
		if err := d.EndDef(); err != nil {
			return err
		}
		for i, id := range ids {
			if err := d.PutVaraAll(id, []int64{int64(c.Rank())}, []int64{1},
				[]int32{int32(i*100 + c.Rank())}); err != nil {
				return err
			}
		}
		return d.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	pf, _, _ := fsys.Open("many.nc", 0)
	sd, err := netcdf.Open(pfs.NewSerialFile(pf, 0), nctype.NoWrite)
	if err != nil {
		t.Fatal(err)
	}
	if sd.NumVars() != nvars {
		t.Fatalf("vars = %d", sd.NumVars())
	}
	for _, i := range []int{0, 77, 149} {
		got := make([]int32, 8)
		if err := sd.GetVar(sd.VarID(fmt.Sprintf("v%03d", i)), got); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 8; r++ {
			if got[r] != int32(i*100+r) {
				t.Fatalf("v%03d[%d] = %d", i, r, got[r])
			}
		}
	}
}

// TestGetOutOfRangeReportsErrRange: a read converts like a write — a Double
// holding 1000 read into []int8 lands every value and returns NC_ERANGE, in
// both libraries, blocking collective and independent alike.
func TestGetOutOfRangeReportsErrRange(t *testing.T) {
	check := func(lib string, get func(dst []int8) error) {
		t.Helper()
		got := make([]int8, 2)
		if err := get(got); !errors.Is(err, cdf.ErrRange) || got[1] != -5 {
			t.Errorf("%s: []int8 <- Double [1000 -5]: %v, %v; want ErrRange, -5 last", lib, got, err)
		}
	}
	vals := []float64{1000, -5}
	start, count := []int64{0}, []int64{2}

	s, err := netcdf.Create(&netcdf.MemStore{}, nctype.Clobber)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := s.DefDim("x", 2)
	v, _ := s.DefVar("d", nctype.Double, []int{x})
	if err := s.EndDef(); err != nil {
		t.Fatal(err)
	}
	if err := s.PutVara(v, start, count, vals); err != nil {
		t.Fatal(err)
	}
	check("netcdf GetVara", func(dst []int8) error { return s.GetVara(v, start, count, dst) })

	fsys := newFS()
	err = mpi.Run(2, mpi.DefaultNet(), func(c *mpi.Comm) error {
		d, err := core.Create(c, fsys, "erange.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		x, _ := d.DefDim("x", 2)
		v, _ := d.DefVar("d", nctype.Double, []int{x})
		if err := d.EndDef(); err != nil {
			return err
		}
		if err := d.PutVaraAll(v, start, count, vals); err != nil {
			return err
		}
		check("core GetVaraAll", func(dst []int8) error { return d.GetVaraAll(v, start, count, dst) })
		if err := d.BeginIndepData(); err != nil {
			return err
		}
		check("core GetVara", func(dst []int8) error { return d.GetVara(v, start, count, dst) })
		if err := d.EndIndepData(); err != nil {
			return err
		}
		return d.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}
