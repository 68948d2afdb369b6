package core

import (
	"errors"
	"fmt"
	"testing"

	"pnetcdf/internal/fault"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
	"pnetcdf/internal/pfs"
)

func testFS() *pfs.FS { return pfs.New(pfs.DefaultConfig()) }

func runWorld(t *testing.T, n int, fn func(*mpi.Comm) error) {
	t.Helper()
	if err := mpi.Run(n, mpi.DefaultNet(), fn); err != nil {
		t.Fatalf("world of %d: %v", n, err)
	}
}

// createStandard builds the shared test dataset collectively:
//
//	dims: time(unlimited), y=4, x=8
//	vars: double flux(time,y,x); int grid(y,x)
func createStandard(c *mpi.Comm, fsys *pfs.FS, path string) (*Dataset, int, int, error) {
	d, err := Create(c, fsys, path, nctype.Clobber, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	tdim, err := d.DefDim("time", 0)
	if err != nil {
		return nil, 0, 0, err
	}
	ydim, _ := d.DefDim("y", 4)
	xdim, _ := d.DefDim("x", 8)
	flux, err := d.DefVar("flux", nctype.Double, []int{tdim, ydim, xdim})
	if err != nil {
		return nil, 0, 0, err
	}
	grid, err := d.DefVar("grid", nctype.Int, []int{ydim, xdim})
	if err != nil {
		return nil, 0, 0, err
	}
	if err := d.PutAttr(GlobalID, "source", nctype.Char, "pnetcdf-go test"); err != nil {
		return nil, 0, 0, err
	}
	if err := d.PutAttr(flux, "units", nctype.Char, "W/m2"); err != nil {
		return nil, 0, 0, err
	}
	if err := d.EndDef(); err != nil {
		return nil, 0, 0, err
	}
	return d, flux, grid, nil
}

func TestCollectiveCreateWriteRead(t *testing.T) {
	fsys := testFS()
	const p = 4
	runWorld(t, p, func(c *mpi.Comm) error {
		d, flux, grid, err := createStandard(c, fsys, "std.nc")
		if err != nil {
			return err
		}
		// Each rank writes one row of grid.
		rows := []int64{int64(c.Rank())}
		_ = rows
		mine := make([]int32, 8)
		for i := range mine {
			mine[i] = int32(c.Rank()*100 + i)
		}
		if err := d.PutVaraAll(grid, []int64{int64(c.Rank()), 0}, []int64{1, 8}, mine); err != nil {
			return err
		}
		// Each rank writes its quarter of two flux records (Y partition).
		fx := make([]float64, 2*1*8)
		for i := range fx {
			fx[i] = float64(c.Rank()) + float64(i)/100
		}
		if err := d.PutVaraAll(flux, []int64{0, int64(c.Rank()), 0}, []int64{2, 1, 8}, fx); err != nil {
			return err
		}
		if d.NumRecs() != 2 {
			return fmt.Errorf("NumRecs = %d", d.NumRecs())
		}
		// Collective read back with a different decomposition (X partition).
		gx := make([]float64, 2*4*2)
		if err := d.GetVaraAll(flux, []int64{0, 0, int64(c.Rank() * 2)}, []int64{2, 4, 2}, gx); err != nil {
			return err
		}
		// Check one element: record 1, row 2, col rank*2 -> written by rank 2
		// at local index (1*8 + rank*2).
		want := 2.0 + float64(8+c.Rank()*2)/100
		if gx[1*4*2+2*2] != want {
			return fmt.Errorf("rank %d: cross-read got %v, want %v", c.Rank(), gx[1*4*2+2*2], want)
		}
		return d.Close()
	})
}

func TestParallelWriteSerialRead(t *testing.T) {
	// The headline compatibility property: a file written by the parallel
	// library is a plain netCDF file readable by the serial library.
	fsys := testFS()
	const p = 4
	runWorld(t, p, func(c *mpi.Comm) error {
		d, flux, grid, err := createStandard(c, fsys, "compat.nc")
		if err != nil {
			return err
		}
		mine := make([]int32, 8)
		for i := range mine {
			mine[i] = int32(c.Rank()*10 + i)
		}
		if err := d.PutVaraAll(grid, []int64{int64(c.Rank()), 0}, []int64{1, 8}, mine); err != nil {
			return err
		}
		fx := make([]float64, 8)
		for i := range fx {
			fx[i] = float64(c.Rank()*1000 + i)
		}
		if err := d.PutVaraAll(flux, []int64{0, int64(c.Rank()), 0}, []int64{1, 1, 8}, fx); err != nil {
			return err
		}
		return d.Close()
	})
	// Serial open through the pfs adapter.
	pf, _, err := fsys.Open("compat.nc", 0)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := netcdf.Open(pfs.NewSerialFile(pf, 0), nctype.NoWrite)
	if err != nil {
		t.Fatalf("serial open of parallel file: %v", err)
	}
	if sd.NumRecs() != 1 || sd.NumVars() != 2 || sd.NumDims() != 3 {
		t.Fatalf("serial view: recs=%d vars=%d dims=%d", sd.NumRecs(), sd.NumVars(), sd.NumDims())
	}
	_, av, err := sd.GetAttr(netcdf.GlobalID, "source")
	if err != nil || string(av.([]byte)) != "pnetcdf-go test" {
		t.Fatalf("attr: %v %v", av, err)
	}
	grid := make([]int32, 32)
	if err := sd.GetVar(sd.VarID("grid"), grid); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		for i := 0; i < 8; i++ {
			if grid[r*8+i] != int32(r*10+i) {
				t.Fatalf("grid[%d,%d] = %d", r, i, grid[r*8+i])
			}
		}
	}
	flux := make([]float64, 32)
	if err := sd.GetVara(sd.VarID("flux"), []int64{0, 0, 0}, []int64{1, 4, 8}, flux); err != nil {
		t.Fatal(err)
	}
	if flux[2*8+3] != 2003 {
		t.Fatalf("flux[0,2,3] = %v", flux[2*8+3])
	}
}

func TestSerialWriteParallelRead(t *testing.T) {
	// And the reverse: serial writes, parallel reads.
	fsys := testFS()
	pf, _ := fsys.Create("s2p.nc", 0)
	sd, err := netcdf.Create(pfs.NewSerialFile(pf, 0), nctype.Clobber)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := sd.DefDim("x", 16)
	v, _ := sd.DefVar("v", nctype.Float, []int{x})
	if err := sd.EndDef(); err != nil {
		t.Fatal(err)
	}
	vals := make([]float32, 16)
	for i := range vals {
		vals[i] = float32(i) * 1.5
	}
	if err := sd.PutVar(v, vals); err != nil {
		t.Fatal(err)
	}
	if err := sd.Close(); err != nil {
		t.Fatal(err)
	}
	runWorld(t, 4, func(c *mpi.Comm) error {
		d, err := Open(c, fsys, "s2p.nc", nctype.NoWrite, nil)
		if err != nil {
			return err
		}
		got := make([]float32, 4)
		if err := d.GetVaraAll(d.VarID("v"), []int64{int64(c.Rank() * 4)}, []int64{4}, got); err != nil {
			return err
		}
		for i := range got {
			want := float32(c.Rank()*4+i) * 1.5
			if got[i] != want {
				return fmt.Errorf("rank %d: [%d] = %v, want %v", c.Rank(), i, got[i], want)
			}
		}
		return d.Close()
	})
}

func TestHeaderBroadcastOnOpen(t *testing.T) {
	fsys := testFS()
	runWorld(t, 3, func(c *mpi.Comm) error {
		d, _, _, err := createStandard(c, fsys, "h.nc")
		if err != nil {
			return err
		}
		if err := d.Close(); err != nil {
			return err
		}
		r, err := Open(c, fsys, "h.nc", nctype.NoWrite, nil)
		if err != nil {
			return err
		}
		// Inquiry is local; every rank must see identical structure.
		if r.NumVars() != 2 || r.VarID("flux") < 0 || r.DimID("x") < 0 {
			return fmt.Errorf("rank %d: header not replicated", c.Rank())
		}
		name, l, err := r.InqDim(r.DimID("y"))
		if err != nil || name != "y" || l != 4 {
			return fmt.Errorf("InqDim: %v %v %v", name, l, err)
		}
		_, typ, dims, err := r.InqVar(r.VarID("flux"))
		if err != nil || typ != nctype.Double || len(dims) != 3 {
			return fmt.Errorf("InqVar: %v %v %v", typ, dims, err)
		}
		return r.Close()
	})
}

func TestDefineConsistencyCheck(t *testing.T) {
	fsys := testFS()
	err := mpi.Run(3, mpi.DefaultNet(), func(c *mpi.Comm) error {
		d, err := Create(c, fsys, "bad.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		// Rank 1 defines a different dimension size: EndDef must fail
		// everywhere with the consistency error.
		size := int64(10)
		if c.Rank() == 1 {
			size = 20
		}
		if _, err := d.DefDim("x", size); err != nil {
			return err
		}
		if err := d.EndDef(); !errors.Is(err, nctype.ErrConsistency) {
			return fmt.Errorf("EndDef: %v, want consistency error", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIndependentMode(t *testing.T) {
	fsys := testFS()
	runWorld(t, 4, func(c *mpi.Comm) error {
		d, _, grid, err := createStandard(c, fsys, "indep.nc")
		if err != nil {
			return err
		}
		// Independent call in collective mode is an error.
		if err := d.PutVara(grid, []int64{0, 0}, []int64{1, 1}, []int32{1}); !errors.Is(err, nctype.ErrCollMode) {
			return fmt.Errorf("indep call in coll mode: %v", err)
		}
		if err := d.BeginIndepData(); err != nil {
			return err
		}
		// Collective call in independent mode is an error.
		if err := d.PutVaraAll(grid, []int64{0, 0}, []int64{1, 1}, []int32{1}); !errors.Is(err, nctype.ErrIndepMode) {
			return fmt.Errorf("coll call in indep mode: %v", err)
		}
		// Only rank 2 writes, independently.
		if c.Rank() == 2 {
			if err := d.PutVara(grid, []int64{3, 0}, []int64{1, 8}, []int32{9, 9, 9, 9, 9, 9, 9, 9}); err != nil {
				return err
			}
		}
		if err := d.EndIndepData(); err != nil {
			return err
		}
		got := make([]int32, 8)
		if err := d.GetVaraAll(grid, []int64{3, 0}, []int64{1, 8}, got); err != nil {
			return err
		}
		if got[0] != 9 || got[7] != 9 {
			return fmt.Errorf("rank %d: independent write not visible: %v", c.Rank(), got)
		}
		return d.Close()
	})
}

func TestIndependentRecordGrowthReconciled(t *testing.T) {
	fsys := testFS()
	runWorld(t, 3, func(c *mpi.Comm) error {
		d, flux, _, err := createStandard(c, fsys, "recs.nc")
		if err != nil {
			return err
		}
		if err := d.BeginIndepData(); err != nil {
			return err
		}
		// Each rank appends a different number of records independently.
		nrec := int64(c.Rank() + 1)
		buf := make([]float64, 4*8)
		for r := int64(0); r < nrec; r++ {
			if err := d.PutVara(flux, []int64{r, 0, 0}, []int64{1, 4, 8}, buf); err != nil {
				return err
			}
		}
		if err := d.EndIndepData(); err != nil {
			return err
		}
		// After reconciliation everyone agrees on max (3 records).
		if d.NumRecs() != 3 {
			return fmt.Errorf("rank %d: NumRecs = %d, want 3", c.Rank(), d.NumRecs())
		}
		return d.Close()
	})
}

func TestFlexibleAPI(t *testing.T) {
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		d, _, grid, err := createStandard(c, fsys, "flex.nc")
		if err != nil {
			return err
		}
		// Memory holds a 2x4 block embedded in a padded 2x6 buffer (like a
		// guard-cell array): rows at stride 6, offset 1.
		buf := make([]int32, 2*6)
		for r := 0; r < 2; r++ {
			for i := 0; i < 4; i++ {
				buf[r*6+1+i] = int32(c.Rank()*100 + r*10 + i)
			}
		}
		memtype, err := mpitype.Subarray([]int64{2, 6}, []int64{2, 4}, []int64{0, 1}, 1)
		if err != nil {
			return err
		}
		start := []int64{0, int64(c.Rank() * 4)}
		if err := d.PutVaraTypeAll(grid, start, []int64{2, 4}, buf, memtype); err != nil {
			return err
		}
		// Read back into the same padded layout.
		got := make([]int32, 2*6)
		if err := d.GetVaraTypeAll(grid, start, []int64{2, 4}, got, memtype); err != nil {
			return err
		}
		for r := 0; r < 2; r++ {
			for i := 0; i < 4; i++ {
				if got[r*6+1+i] != buf[r*6+1+i] {
					return fmt.Errorf("flex round trip at (%d,%d): %d != %d", r, i, got[r*6+1+i], buf[r*6+1+i])
				}
			}
			// Padding untouched on read path (freshly allocated, must stay 0).
			if got[r*6] != 0 || got[r*6+5] != 0 {
				return fmt.Errorf("guard cells overwritten: %v", got)
			}
		}
		// Size mismatch is rejected.
		small, _ := mpitype.Subarray([]int64{2, 6}, []int64{1, 4}, []int64{0, 1}, 1)
		if err := d.PutVaraTypeAll(grid, start, []int64{2, 4}, buf, small); !errors.Is(err, nctype.ErrCountMismatch) {
			return fmt.Errorf("size mismatch: %v", err)
		}
		return d.Close()
	})
}

func TestVarmAndVar1(t *testing.T) {
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		d, _, grid, err := createStandard(c, fsys, "varm.nc")
		if err != nil {
			return err
		}
		// Collective varm: write a transposed 2x2 block per rank.
		vals := []int32{int32(10 + c.Rank()), int32(30 + c.Rank()), int32(20 + c.Rank()), int32(40 + c.Rank())}
		start := []int64{0, int64(c.Rank() * 2)}
		if err := d.PutVarmAll(grid, start, []int64{2, 2}, nil, []int64{1, 2}, vals); err != nil {
			return err
		}
		got := make([]int32, 4)
		if err := d.GetVaraAll(grid, start, []int64{2, 2}, got); err != nil {
			return err
		}
		// File order row-major: (0,0)=vals[0], (0,1)=vals[2], (1,0)=vals[1], (1,1)=vals[3]
		if got[0] != vals[0] || got[1] != vals[2] || got[2] != vals[1] || got[3] != vals[3] {
			return fmt.Errorf("varm wrote %v", got)
		}
		// Independent var1.
		if err := d.BeginIndepData(); err != nil {
			return err
		}
		if err := d.PutVar1(grid, []int64{3, int64(c.Rank())}, []int32{int32(-1 - c.Rank())}); err != nil {
			return err
		}
		one := make([]int32, 1)
		if err := d.GetVar1(grid, []int64{3, int64(c.Rank())}, one); err != nil {
			return err
		}
		if one[0] != int32(-1-c.Rank()) {
			return fmt.Errorf("var1 = %d", one[0])
		}
		if err := d.EndIndepData(); err != nil {
			return err
		}
		return d.Close()
	})
}

func TestStridedCollective(t *testing.T) {
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		d, _, grid, err := createStandard(c, fsys, "stride.nc")
		if err != nil {
			return err
		}
		// Rank r writes columns r, r+2, r+4, r+6 of row 0.
		vals := []int32{int32(c.Rank()*1000 + 0), int32(c.Rank()*1000 + 1), int32(c.Rank()*1000 + 2), int32(c.Rank()*1000 + 3)}
		if err := d.PutVarsAll(grid, []int64{0, int64(c.Rank())}, []int64{1, 4}, []int64{1, 2}, vals); err != nil {
			return err
		}
		row := make([]int32, 8)
		if err := d.GetVaraAll(grid, []int64{0, 0}, []int64{1, 8}, row); err != nil {
			return err
		}
		for i := 0; i < 8; i++ {
			want := int32((i%2)*1000 + i/2)
			if row[i] != want {
				return fmt.Errorf("row[%d] = %d, want %d", i, row[i], want)
			}
		}
		return d.Close()
	})
}

func TestNonblockingBatch(t *testing.T) {
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		d, err := Create(c, fsys, "nb.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		tdim, _ := d.DefDim("t", 0)
		xdim, _ := d.DefDim("x", 4)
		// Several record variables, the paper's record-batching scenario.
		var vars []int
		for i := 0; i < 5; i++ {
			v, err := d.DefVar(fmt.Sprintf("u%d", i), nctype.Float, []int{tdim, xdim})
			if err != nil {
				return err
			}
			vars = append(vars, v)
		}
		if err := d.EndDef(); err != nil {
			return err
		}
		// Queue one record of each variable, then write them all at once.
		half := []int64{int64(c.Rank() * 2)}
		_ = half
		for i, v := range vars {
			vals := []float32{float32(i*10 + c.Rank()), float32(i*10 + c.Rank() + 1)}
			if _, err := d.IPutVara(v, []int64{0, int64(c.Rank() * 2)}, []int64{1, 2}, vals); err != nil {
				return err
			}
		}
		if d.PendingRequests() != 5 {
			return fmt.Errorf("pending = %d", d.PendingRequests())
		}
		if err := d.WaitAll(); err != nil {
			return err
		}
		if d.PendingRequests() != 0 {
			return fmt.Errorf("pending after WaitAll = %d", d.PendingRequests())
		}
		// Batched reads.
		bufs := make([][]float32, 5)
		for i, v := range vars {
			bufs[i] = make([]float32, 4)
			if _, err := d.IGetVara(v, []int64{0, 0}, []int64{1, 4}, bufs[i]); err != nil {
				return err
			}
		}
		if err := d.WaitAll(); err != nil {
			return err
		}
		for i := range bufs {
			want := []float32{float32(i * 10), float32(i*10 + 1), float32(i*10 + 1), float32(i*10 + 2)}
			for j := range want {
				if bufs[i][j] != want[j] {
					return fmt.Errorf("u%d = %v, want %v", i, bufs[i], want)
				}
			}
		}
		// Close with pending requests is refused.
		if _, err := d.IGetVara(vars[0], []int64{0, 0}, []int64{1, 1}, make([]float32, 1)); err != nil {
			return err
		}
		if err := d.Close(); err == nil {
			return errors.New("close with pending requests succeeded")
		}
		if err := d.WaitAll(); err != nil {
			return err
		}
		return d.Close()
	})
}

func TestRedefRelocationParallel(t *testing.T) {
	fsys := testFS()
	runWorld(t, 3, func(c *mpi.Comm) error {
		d, flux, grid, err := createStandard(c, fsys, "redef.nc")
		if err != nil {
			return err
		}
		g := make([]int32, 32)
		for i := range g {
			g[i] = int32(i)
		}
		if c.Rank() == 0 {
			// Root writes via independent mode for setup simplicity.
		}
		if err := d.PutVaraAll(grid, []int64{0, 0}, []int64{4, 8}, g); err != nil {
			return err
		}
		fx := make([]float64, 32)
		for i := range fx {
			fx[i] = float64(i) / 3
		}
		if err := d.PutVaraAll(flux, []int64{0, 0, 0}, []int64{1, 4, 8}, fx); err != nil {
			return err
		}
		if err := d.Redef(); err != nil {
			return err
		}
		if err := d.PutAttr(GlobalID, "history", nctype.Char,
			"grown by a long attribute .............................................."); err != nil {
			return err
		}
		if _, err := d.DefVar("extra", nctype.Short, []int{d.DimID("y")}); err != nil {
			return err
		}
		if err := d.EndDef(); err != nil {
			return err
		}
		got := make([]int32, 32)
		if err := d.GetVaraAll(grid, []int64{0, 0}, []int64{4, 8}, got); err != nil {
			return err
		}
		for i := range g {
			if got[i] != g[i] {
				return fmt.Errorf("grid lost after redef at %d: %d", i, got[i])
			}
		}
		gfx := make([]float64, 32)
		if err := d.GetVaraAll(flux, []int64{0, 0, 0}, []int64{1, 4, 8}, gfx); err != nil {
			return err
		}
		for i := range fx {
			if gfx[i] != fx[i] {
				return fmt.Errorf("flux lost after redef at %d: %v", i, gfx[i])
			}
		}
		return d.Close()
	})
}

func TestCreateModesAndErrors(t *testing.T) {
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		d, err := Create(c, fsys, "m.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		if err := d.Close(); err != nil {
			return err
		}
		if _, err := Create(c, fsys, "m.nc", nctype.NoClobber, nil); err == nil {
			return errors.New("NoClobber create over existing file succeeded")
		}
		if _, err := Open(c, fsys, "absent.nc", nctype.NoWrite, nil); err == nil {
			return errors.New("open of absent file succeeded")
		}
		// Read-only enforcement.
		r, err := Open(c, fsys, "m.nc", nctype.NoWrite, nil)
		if err != nil {
			return err
		}
		if err := r.PutAttr(GlobalID, "a", nctype.Int, 1); !errors.Is(err, nctype.ErrPerm) {
			return fmt.Errorf("att on RO: %v", err)
		}
		if err := r.Redef(); !errors.Is(err, nctype.ErrPerm) {
			return fmt.Errorf("redef on RO: %v", err)
		}
		return r.Close()
	})
}

func TestHintsAffectLayout(t *testing.T) {
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		info := mpi.NewInfo().
			Set("nc_header_align_size", "4096").
			Set("nc_var_align_size", "1024")
		d, err := Create(c, fsys, "hints.nc", nctype.Clobber, info)
		if err != nil {
			return err
		}
		x, _ := d.DefDim("x", 3) // 12-byte variable, forcing alignment gaps
		v1, _ := d.DefVar("a", nctype.Int, []int{x})
		v2, _ := d.DefVar("b", nctype.Int, []int{x})
		if err := d.EndDef(); err != nil {
			return err
		}
		h := d.Header()
		if h.Vars[v1].Begin%4096 != 0 {
			return fmt.Errorf("first var at %d, want 4096-aligned", h.Vars[v1].Begin)
		}
		if h.Vars[v2].Begin%1024 != 0 {
			return fmt.Errorf("second var at %d, want 1024-aligned", h.Vars[v2].Begin)
		}
		return d.Close()
	})
}

func TestFillModeParallel(t *testing.T) {
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		d, err := Create(c, fsys, "fill.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		d.SetFill(true)
		x, _ := d.DefDim("x", 6)
		v, _ := d.DefVar("v", nctype.Float, []int{x})
		if err := d.EndDef(); err != nil {
			return err
		}
		got := make([]float32, 6)
		if err := d.GetVaraAll(v, []int64{0}, []int64{6}, got); err != nil {
			return err
		}
		for _, x := range got {
			if x != nctype.FillFloat {
				return fmt.Errorf("fill = %v", got)
			}
		}
		return d.Close()
	})
}

func TestManyRanksSmallWrites(t *testing.T) {
	// Stress the collective machinery with more ranks than data.
	fsys := testFS()
	runWorld(t, 9, func(c *mpi.Comm) error {
		d, err := Create(c, fsys, "many.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		x, _ := d.DefDim("x", 9)
		v, _ := d.DefVar("v", nctype.Int, []int{x})
		if err := d.EndDef(); err != nil {
			return err
		}
		if err := d.PutVaraAll(v, []int64{int64(c.Rank())}, []int64{1}, []int32{int32(c.Rank() * c.Rank())}); err != nil {
			return err
		}
		all := make([]int32, 9)
		if err := d.GetVaraAll(v, []int64{0}, []int64{9}, all); err != nil {
			return err
		}
		for i := range all {
			if all[i] != int32(i*i) {
				return fmt.Errorf("all = %v", all)
			}
		}
		return d.Close()
	})
}

func TestPrefetchHint(t *testing.T) {
	fsys := testFS()
	runWorld(t, 3, func(c *mpi.Comm) error {
		d, _, grid, err := createStandard(c, fsys, "pf.nc")
		if err != nil {
			return err
		}
		vals := make([]int32, 32)
		for i := range vals {
			vals[i] = int32(i * 3)
		}
		if err := d.PutVaraAll(grid, []int64{0, 0}, []int64{4, 8}, vals); err != nil {
			return err
		}
		if err := d.Close(); err != nil {
			return err
		}
		info := mpi.NewInfo().Set("nc_prefetch_vars", "grid, nosuchvar")
		r, err := Open(c, fsys, "pf.nc", nctype.NoWrite, info)
		if err != nil {
			return err
		}
		if len(r.PrefetchedVars()) != 1 {
			return fmt.Errorf("prefetched %v", r.PrefetchedVars())
		}
		// Reads served from the local copy must still be exact, for every
		// access method.
		got := make([]int32, 8)
		if err := r.GetVaraAll(grid, []int64{2, 0}, []int64{1, 8}, got); err != nil {
			return err
		}
		for i := range got {
			if got[i] != int32((16+i)*3) {
				return fmt.Errorf("cached vara = %v", got)
			}
		}
		str := make([]int32, 4)
		if err := r.GetVarsAll(grid, []int64{0, 0}, []int64{1, 4}, []int64{1, 2}, str); err != nil {
			return err
		}
		if str[3] != 18 {
			return fmt.Errorf("cached vars = %v", str)
		}
		// Cached reads must be much cheaper than file reads: compare clocks.
		t0 := c.Clock()
		for i := 0; i < 50; i++ {
			if err := r.GetVaraAll(grid, []int64{0, 0}, []int64{4, 8}, vals); err != nil {
				return err
			}
		}
		cached := c.Clock() - t0
		if cached > 0.01 { // 50 cached reads must cost ~nothing
			return fmt.Errorf("cached reads cost %.4fs of virtual time", cached)
		}
		return r.Close()
	})
}

// TestPrefetchReadFailureIsCollective: the root's failed prefetch read is an
// error on every rank, not a wait for a broadcast that never comes.
func TestPrefetchReadFailureIsCollective(t *testing.T) {
	fsys := testFS()
	runWorld(t, 3, func(c *mpi.Comm) error {
		d, err := Create(c, fsys, "pfail.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		x, _ := d.DefDim("x", 1<<20)
		if _, err := d.DefVar("big", nctype.Float, []int{x}); err != nil {
			return err
		}
		return d.Close()
	})
	// One fault draw per 64 KiB at 20%: Open's first header read is one unit
	// and fails all nine tries with probability 0.2^9; the 4 MiB variable is
	// 64 units and fails each try with probability 1 - 0.8^64.
	fsys.SetFault(fault.New(fault.Config{Seed: 3, ReadErrRate: 0.2, FaultUnit: 64 << 10}))
	info := mpi.NewInfo().Set("nc_prefetch_vars", "big")
	runWorld(t, 3, func(c *mpi.Comm) error {
		want := mpi.ErrPeerFailed
		if c.Rank() == 0 {
			want = fault.ErrRetriesExhausted
		}
		if _, err := Open(c, fsys, "pfail.nc", nctype.NoWrite, info); !errors.Is(err, want) {
			return fmt.Errorf("rank %d: Open = %v, want %v", c.Rank(), err, want)
		}
		return nil
	})
}

func TestPrefetchInvalidatedByWrite(t *testing.T) {
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		d, _, grid, err := createStandard(c, fsys, "pfi.nc")
		if err != nil {
			return err
		}
		if err := d.PutVaraAll(grid, []int64{0, 0}, []int64{4, 8}, make([]int32, 32)); err != nil {
			return err
		}
		if err := d.Close(); err != nil {
			return err
		}
		info := mpi.NewInfo().Set("nc_prefetch_vars", "grid")
		r, err := Open(c, fsys, "pfi.nc", nctype.Write, info)
		if err != nil {
			return err
		}
		// Collective write drops the copy everywhere; the next read sees the
		// new data from the file.
		if err := r.PutVaraAll(grid, []int64{0, 0}, []int64{1, 8},
			[]int32{9, 9, 9, 9, 9, 9, 9, 9}); err != nil {
			return err
		}
		if len(r.PrefetchedVars()) != 0 {
			return fmt.Errorf("cache survived write: %v", r.PrefetchedVars())
		}
		got := make([]int32, 8)
		if err := r.GetVaraAll(grid, []int64{0, 0}, []int64{1, 8}, got); err != nil {
			return err
		}
		if got[0] != 9 {
			return fmt.Errorf("read after invalidation = %v", got)
		}
		return r.Close()
	})
}
