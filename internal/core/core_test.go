package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"pnetcdf/internal/cdf"
	"pnetcdf/internal/fault"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
	"pnetcdf/internal/pfs"
)

func testFS() *pfs.FS { return pfs.New(pfs.BlueHorizon()) }

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

// A buffer of a Go type the library does not convert is a type mismatch on
// every rank, not a count mismatch.
func TestUnsupportedMemoryType(t *testing.T) {
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		d, _, grid, err := createStandard(c, fsys, "inttype.nc")
		if err != nil {
			return err
		}
		start := []int64{0, int64(c.Rank() * 4)}
		if err := d.PutVaraAll(grid, start, []int64{1, 4}, []int{1, 2, 3, 4}); !errors.Is(err, nctype.ErrTypeMismatch) {
			return fmt.Errorf("rank %d: put of []int: %v, want ErrTypeMismatch", c.Rank(), err)
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
		if len(d.pending) != 5 {
			return fmt.Errorf("pending = %d", len(d.pending))
		}
		if err := d.WaitAll(); err != nil {
			return err
		}
		if len(d.pending) != 0 {
			return fmt.Errorf("pending after WaitAll = %d", len(d.pending))
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

// TestRedefRelocationFailureIsCollective: when one rank's share of a
// parallel relocation fails, EndDef fails on every rank — the mover with its
// own error, the others with mpi.ErrPeerFailed — and nobody is left waiting
// for the rank that gave up. A crash point inside each variable's new place
// fails each mover in turn.
func TestRedefRelocationFailureIsCollective(t *testing.T) {
	const ranks, nvars = 4, 4
	build := func(c *mpi.Comm, fsys *pfs.FS, arm func()) (*Dataset, error) {
		d, err := Create(c, fsys, "move.nc", nctype.Clobber, nil)
		if err != nil {
			return nil, err
		}
		x, _ := d.DefDim("x", 16)
		for i := 0; i < nvars; i++ {
			if _, err := d.DefVar(fmt.Sprintf("v%d", i), nctype.Int, []int{x}); err != nil {
				return nil, err
			}
		}
		if err := d.EndDef(); err != nil {
			return nil, err
		}
		if err := d.Redef(); err != nil {
			return nil, err
		}
		// The header outgrows all the data: every move lands past every
		// source, so the ranks share them.
		if err := d.PutAttr(GlobalID, "history", nctype.Char, strings.Repeat("h", 4096)); err != nil {
			return nil, err
		}
		arm()
		return d, d.EndDef()
	}
	// Where the variables land, from a run without faults.
	var begins []int64
	probe := testFS()
	runWorld(t, ranks, func(c *mpi.Comm) error {
		d, err := build(c, probe, func() {})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for _, v := range d.Header().Vars {
				begins = append(begins, v.Begin)
			}
		}
		return d.Close()
	})
	for k, at := range begins {
		fsys := testFS()
		in := fault.New(fault.Config{Seed: 1})
		fsys.SetFault(in)
		errs := make([]error, ranks)
		err := mpi.Run(ranks, mpi.DefaultNet(), func(c *mpi.Comm) error {
			_, errs[c.Rank()] = build(c, fsys, func() {
				if c.Rank() == 0 {
					in.ArmCrash(at+1, false)
				}
				c.Barrier()
			})
			return nil
		})
		if err != nil {
			t.Fatalf("crash in v%d's new place: %v", k, err)
		}
		crashed := 0
		for r, err := range errs {
			switch {
			case errors.Is(err, fault.ErrCrashed):
				crashed++
			case !errors.Is(err, mpi.ErrPeerFailed):
				t.Fatalf("crash in v%d's new place: rank %d: EndDef = %v, want the crash or mpi.ErrPeerFailed", k, r, err)
			}
		}
		if crashed != 1 {
			t.Fatalf("crash in v%d's new place: %d ranks crashed, want 1 (errors %v)", k, crashed, errs)
		}
	}
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
		if _, err := Create(c, fsys, "m.nc", nctype.NoClobber, nil); !errors.Is(err, nctype.ErrExists) {
			return fmt.Errorf("NoClobber create over existing file: %v, want %v", err, nctype.ErrExists)
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

// TestFillModeCDF5 reads back each CDF-5 type's fixed variable in a
// fill-mode file: netCDF's default fill value.
func TestFillModeCDF5(t *testing.T) {
	fills := []struct {
		typ  nctype.Type
		want string
	}{
		{nctype.UByte, "255"},
		{nctype.UShort, "65535"},
		{nctype.UInt, "4294967295"},
		{nctype.Int64, "-9223372036854775806"},
		{nctype.UInt64, "18446744073709551614"},
	}
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		d, err := Create(c, fsys, "fill5.nc", nctype.Clobber|nctype.Bit64Data, nil)
		if err != nil {
			return err
		}
		d.SetFill(true)
		x, _ := d.DefDim("x", 3)
		for _, f := range fills {
			if _, err := d.DefVar("v_"+f.typ.String(), f.typ, []int{x}); err != nil {
				return err
			}
		}
		if err := d.EndDef(); err != nil {
			return err
		}
		for v, f := range fills {
			got := cdf.NewSlice(f.typ, 3)
			if err := d.GetVaraAll(v, []int64{0}, []int64{3}, got); err != nil {
				return err
			}
			if want := "[" + strings.Repeat(f.want+" ", 2) + f.want + "]"; fmt.Sprint(got) != want {
				return fmt.Errorf("%v fill = %v, want %s", f.typ, got, want)
			}
		}
		return d.Close()
	})
}

// TestFillKeepsDataAcrossRedef: in fill mode an EndDef fills only the
// variables its define mode added; data written before a Redef that adds a
// variable survives it, and the new variable reads fill.
func TestFillKeepsDataAcrossRedef(t *testing.T) {
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		d, err := Create(c, fsys, "refill.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		d.SetFill(true)
		x, _ := d.DefDim("x", 6)
		v, _ := d.DefVar("v", nctype.Float, []int{x})
		if err := d.EndDef(); err != nil {
			return err
		}
		mine := []float32{float32(3*c.Rank() + 1), float32(3*c.Rank() + 2), float32(3*c.Rank() + 3)}
		if err := d.PutVaraAll(v, []int64{3 * int64(c.Rank())}, []int64{3}, mine); err != nil {
			return err
		}
		if err := d.Redef(); err != nil {
			return err
		}
		w, _ := d.DefVar("w", nctype.Float, []int{x})
		if err := d.EndDef(); err != nil {
			return err
		}
		got := make([]float32, 6)
		if err := d.GetVaraAll(v, []int64{0}, []int64{6}, got); err != nil {
			return err
		}
		for i, g := range got {
			if g != float32(i+1) {
				return fmt.Errorf("v after Redef = %v, want 1..6", got)
			}
		}
		if err := d.GetVaraAll(w, []int64{0}, []int64{6}, got); err != nil {
			return err
		}
		for _, g := range got {
			if g != nctype.FillFloat {
				return fmt.Errorf("new w = %v, want fill", got)
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
		if len(prefetched(r)) != 1 {
			return fmt.Errorf("prefetched %v", prefetched(r))
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
	// A read crash point 2 MiB into the file: the header reads stop short
	// of it, and the prefetch read of the 4 MiB variable covers it.
	in := fault.New(fault.Config{Seed: 3})
	in.ArmCrash(1<<21, false)
	fsys.SetFault(in)
	info := mpi.NewInfo().Set("nc_prefetch_vars", "big")
	runWorld(t, 3, func(c *mpi.Comm) error {
		want := mpi.ErrPeerFailed
		if c.Rank() == 0 {
			want = fault.ErrCrashed
		}
		if _, err := Open(c, fsys, "pfail.nc", nctype.NoWrite, info); !errors.Is(err, want) {
			return fmt.Errorf("rank %d: Open = %v, want %v", c.Rank(), err, want)
		}
		return nil
	})
}

// TestPrefetchOneReadOneBroadcast: however many variables the hint names,
// in whatever order and however often, the root reads them in one request
// and every rank receives them in one broadcast behind the agreement on that
// read; each rank's copies are cut, in begin order, from the one buffer.
func TestPrefetchOneReadOneBroadcast(t *testing.T) {
	fsys := testFS()
	names := []string{"a", "b", "skipped", "c"}
	runWorld(t, 3, func(c *mpi.Comm) error {
		d, err := Create(c, fsys, "pf3.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		x, _ := d.DefDim("x", 1000)
		for _, name := range names {
			if _, err := d.DefVar(name, nctype.Double, []int{x}); err != nil {
				return err
			}
		}
		if err := d.EndDef(); err != nil {
			return err
		}
		vals := make([]float64, 1000)
		for v := range names {
			for i := range vals {
				vals[i] = float64(v*1000 + i)
			}
			if err := d.PutVarAll(v, vals); err != nil {
				return err
			}
		}
		if err := d.Close(); err != nil {
			return err
		}
		st := iostat.New()
		c.Proc().SetStats(st)
		// open returns what an Open costs this rank in pfs read calls and
		// collectives.
		open := func(info *mpi.Info) (*Dataset, int64, int64, error) {
			reads, colls := st.Get(iostat.PfsReadCalls), st.Get(iostat.MPICollectives)
			r, err := Open(c, fsys, "pf3.nc", nctype.NoWrite, info)
			return r, st.Get(iostat.PfsReadCalls) - reads, st.Get(iostat.MPICollectives) - colls, err
		}
		r, plainReads, plainColls, err := open(nil)
		if err != nil {
			return err
		}
		if err := r.Close(); err != nil {
			return err
		}
		r, reads, colls, err := open(mpi.NewInfo().Set("nc_prefetch_vars", "c, a,b , a"))
		if err != nil {
			return err
		}
		agree := st.Get(iostat.MPICollectives)
		if err := c.AgreeError(nil); err != nil {
			return err
		}
		agree = st.Get(iostat.MPICollectives) - agree
		wantReads := int64(0)
		if c.Rank() == 0 {
			wantReads = 1
		}
		if reads-plainReads != wantReads || colls-plainColls != agree+1 {
			return fmt.Errorf("rank %d: the hint cost %d pfs reads and %d collectives, want %d and %d (the agreement and one broadcast)",
				c.Rank(), reads-plainReads, colls-plainColls, wantReads, agree+1)
		}
		var imgs [][]byte
		for _, v := range []int{0, 1, 3} {
			img, ok := r.cache[v]
			if !ok {
				return fmt.Errorf("rank %d: %s not prefetched (%v)", c.Rank(), names[v], prefetched(r))
			}
			imgs = append(imgs, img)
		}
		if _, ok := r.cache[2]; ok || len(r.cache) != 3 {
			return fmt.Errorf("rank %d: prefetched %v", c.Rank(), prefetched(r))
		}
		for i := 1; i < len(imgs); i++ {
			prev := imgs[i-1]
			if unsafe.Pointer(unsafe.SliceData(imgs[i])) != unsafe.Add(unsafe.Pointer(unsafe.SliceData(prev)), len(prev)) {
				return fmt.Errorf("rank %d: image %d does not follow image %d in one buffer", c.Rank(), i, i-1)
			}
		}
		got := make([]float64, 1000)
		for _, v := range []int{0, 1, 3} {
			if err := r.GetVarAll(v, got); err != nil {
				return err
			}
			if got[0] != float64(v*1000) || got[999] != float64(v*1000+999) {
				return fmt.Errorf("rank %d: cached %s = %v…%v", c.Rank(), names[v], got[0], got[999])
			}
		}
		return r.Close()
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
		if len(prefetched(r)) != 0 {
			return fmt.Errorf("cache survived write: %v", prefetched(r))
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

// prefetched lists the variable IDs that have a local prefetched copy, in
// order.
func prefetched(d *Dataset) []int {
	ids := make([]int, 0, len(d.cache))
	for id := range d.cache {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}
