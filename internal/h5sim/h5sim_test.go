package h5sim

import (
	"errors"
	"fmt"
	"testing"

	"pnetcdf/internal/mpi"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/pfs"
)

func testFS() *pfs.FS { return pfs.New(pfs.BlueHorizon()) }

func runWorld(t *testing.T, n int, fn func(*mpi.Comm) error) {
	t.Helper()
	if err := mpi.Run(n, mpi.DefaultNet(), fn); err != nil {
		t.Fatalf("world of %d: %v", n, err)
	}
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	fsys := testFS()
	const p = 4
	runWorld(t, p, func(c *mpi.Comm) error {
		f, err := CreateFile(c, fsys, "a.h5", nil)
		if err != nil {
			return err
		}
		ds, err := f.CreateDataset("/dens", nctype.Double, []int64{8, 4})
		if err != nil {
			return err
		}
		// Each rank writes 2 rows.
		rows := make([]float64, 2*4)
		for i := range rows {
			rows[i] = float64(c.Rank()*100 + i)
		}
		fsel := Select{Start: []int64{int64(c.Rank() * 2), 0}, Count: []int64{2, 4}}
		if err := ds.WriteAll(fsel, nil, rows); err != nil {
			return err
		}
		if err := ds.Close(); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		// Reopen and read with a different decomposition (columns).
		f, err = OpenFile(c, fsys, "a.h5", true, nil)
		if err != nil {
			return err
		}
		ds, err = f.OpenDataset("/dens")
		if err != nil {
			return err
		}
		if ds.typ != nctype.Double || len(ds.dims) != 2 || ds.dims[0] != 8 {
			return fmt.Errorf("metadata: %v %v", ds.typ, ds.dims)
		}
		col := make([]float64, 8)
		fsel = Select{Start: []int64{0, int64(c.Rank())}, Count: []int64{8, 1}}
		if err := ds.ReadAll(fsel, nil, col); err != nil {
			return err
		}
		for r := 0; r < 8; r++ {
			want := float64((r/2)*100 + (r%2)*4 + c.Rank())
			if col[r] != want {
				return fmt.Errorf("rank %d col[%d] = %v, want %v", c.Rank(), r, col[r], want)
			}
		}
		if err := ds.Close(); err != nil {
			return err
		}
		return f.Close()
	})
}

func TestGroupsAndNamespace(t *testing.T) {
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		f, err := CreateFile(c, fsys, "g.h5", nil)
		if err != nil {
			return err
		}
		ds, err := f.CreateDataset("/temp", nctype.Float, []int64{4})
		if err != nil {
			return err
		}
		if err := ds.WriteAll(Select{Start: []int64{0}, Count: []int64{4}}, nil, []float32{1, 2, 3, 4}); err != nil {
			return err
		}
		ds.Close()
		// Duplicate names rejected.
		if _, err := f.CreateDataset("/temp", nctype.Float, []int64{4}); err == nil {
			return errors.New("duplicate dataset accepted")
		}
		// Missing paths rejected.
		if _, err := f.OpenDataset("/sim/temp"); err == nil {
			return errors.New("open of missing path succeeded")
		}
		f.Close()
		f, err = OpenFile(c, fsys, "g.h5", true, nil)
		if err != nil {
			return err
		}
		ds, err = f.OpenDataset("/temp")
		if err != nil {
			return err
		}
		got := make([]float32, 4)
		if err := ds.ReadAll(Select{Start: []int64{0}, Count: []int64{4}}, nil, got); err != nil {
			return err
		}
		if got[3] != 4 {
			return fmt.Errorf("reopened dataset = %v", got)
		}
		ds.Close()
		return f.Close()
	})
}

func TestMemoryHyperslabGuardCells(t *testing.T) {
	// The FLASH pattern: an 4x4 interior inside a 8x8 guarded block.
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		f, err := CreateFile(c, fsys, "guard.h5", nil)
		if err != nil {
			return err
		}
		ds, err := f.CreateDataset("/unk", nctype.Double, []int64{2, 4, 4})
		if err != nil {
			return err
		}
		// Guarded 8x8 block; interior at (2,2).
		block := make([]float64, 8*8)
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				block[(y+2)*8+(x+2)] = float64(c.Rank()*1000 + y*10 + x + 1)
			}
		}
		// Guards are poison; they must never reach the file.
		for i := range block {
			if block[i] == 0 {
				block[i] = -7777
			}
		}
		fsel := Select{Start: []int64{int64(c.Rank()), 0, 0}, Count: []int64{1, 4, 4}}
		msel := &Select{Dims: []int64{8, 8}, Start: []int64{2, 2}, Count: []int64{4, 4}}
		if err := ds.WriteAll(fsel, msel, block); err != nil {
			return err
		}
		// Read back contiguously.
		flat := make([]float64, 16)
		if err := ds.ReadAll(fsel, nil, flat); err != nil {
			return err
		}
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				want := float64(c.Rank()*1000 + y*10 + x + 1)
				if flat[y*4+x] != want {
					return fmt.Errorf("interior (%d,%d) = %v, want %v (guards leaked?)", y, x, flat[y*4+x], want)
				}
			}
		}
		// And read back into a guarded buffer.
		back := make([]float64, 8*8)
		if err := ds.ReadAll(fsel, msel, back); err != nil {
			return err
		}
		if back[0] != 0 || back[2*8+2] != float64(c.Rank()*1000+1) {
			return fmt.Errorf("guarded read: corner=%v interior=%v", back[0], back[2*8+2])
		}
		ds.Close()
		return f.Close()
	})
}

func TestSelectionValidation(t *testing.T) {
	fsys := testFS()
	runWorld(t, 1, func(c *mpi.Comm) error {
		f, _ := CreateFile(c, fsys, "v.h5", nil)
		ds, err := f.CreateDataset("/d", nctype.Float, []int64{4, 4})
		if err != nil {
			return err
		}
		buf := make([]float32, 16)
		if err := ds.WriteAll(Select{Start: []int64{2, 0}, Count: []int64{3, 4}}, nil, buf); err == nil {
			return errors.New("out-of-bounds selection accepted")
		}
		if err := ds.WriteAll(Select{Start: []int64{0}, Count: []int64{4}}, nil, buf); err == nil {
			return errors.New("rank mismatch accepted")
		}
		msel := &Select{Dims: []int64{4, 4}, Start: []int64{0, 0}, Count: []int64{2, 2}}
		if err := ds.WriteAll(Select{Start: []int64{0, 0}, Count: []int64{4, 4}}, msel, buf); err == nil {
			return errors.New("mem/file size mismatch accepted")
		}
		if _, err := f.CreateDataset("/bad", nctype.Float, []int64{0}); err == nil {
			return errors.New("zero dimension accepted")
		}
		ds.Close()
		return f.Close()
	})
}

func TestManyDatasetsLikeFlash(t *testing.T) {
	// 24 unknowns + metadata arrays: the namespace and header machinery must
	// hold up, and the file must round-trip.
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		f, err := CreateFile(c, fsys, "flashlike.h5", nil)
		if err != nil {
			return err
		}
		for i := 0; i < 24; i++ {
			ds, err := f.CreateDataset(fmt.Sprintf("/unk%02d", i), nctype.Double, []int64{4, 2, 2, 2})
			if err != nil {
				return err
			}
			vals := make([]float64, 2*2*2*2)
			for j := range vals {
				vals[j] = float64(i*1000 + c.Rank()*100 + j)
			}
			fsel := Select{Start: []int64{int64(c.Rank() * 2), 0, 0, 0}, Count: []int64{2, 2, 2, 2}}
			if err := ds.WriteAll(fsel, nil, vals); err != nil {
				return err
			}
			if err := ds.Close(); err != nil {
				return err
			}
		}
		f.Close()
		f, err = OpenFile(c, fsys, "flashlike.h5", true, nil)
		if err != nil {
			return err
		}
		for _, i := range []int{0, 7, 23} {
			ds, err := f.OpenDataset(fmt.Sprintf("/unk%02d", i))
			if err != nil {
				return err
			}
			got := make([]float64, 16)
			fsel := Select{Start: []int64{int64(c.Rank() * 2), 0, 0, 0}, Count: []int64{2, 2, 2, 2}}
			if err := ds.ReadAll(fsel, nil, got); err != nil {
				return err
			}
			if got[3] != float64(i*1000+c.Rank()*100+3) {
				return fmt.Errorf("unk%02d[3] = %v", i, got[3])
			}
			ds.Close()
		}
		return f.Close()
	})
}

func TestVirtualTimeOverheadVsPnetCDFShape(t *testing.T) {
	// Not a full benchmark — just the invariant the paper's Figure 7 rests
	// on: for the same data volume and decomposition, the h5sim write path
	// costs more virtual time than the PnetCDF-style single-view write,
	// because of per-dataset collective metadata and packing overheads.
	fsys := testFS()
	var h5Time float64
	runWorld(t, 4, func(c *mpi.Comm) error {
		f, err := CreateFile(c, fsys, "perf.h5", nil)
		if err != nil {
			return err
		}
		c.Proc().SetClock(0)
		fsys.ResetClock()
		c.Barrier()
		for i := 0; i < 8; i++ {
			ds, err := f.CreateDataset(fmt.Sprintf("/u%d", i), nctype.Double, []int64{4, 64, 64})
			if err != nil {
				return err
			}
			buf := make([]float64, 64*64)
			fsel := Select{Start: []int64{int64(c.Rank()), 0, 0}, Count: []int64{1, 64, 64}}
			if err := ds.WriteAll(fsel, nil, buf); err != nil {
				return err
			}
			ds.Close()
		}
		end := c.AllreduceF64([]float64{c.Clock()}, mpi.OpMax)[0]
		if c.Rank() == 0 {
			h5Time = end
		}
		return f.Close()
	})
	if h5Time <= 0 {
		t.Fatal("no virtual time accumulated")
	}
}

func TestGroupTableGrowth(t *testing.T) {
	// Enough entries to overflow the initial 4 KiB table and force the
	// reallocation path; the namespace must stay fully functional.
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		f, err := CreateFile(c, fsys, "grow.h5", nil)
		if err != nil {
			return err
		}
		const n = 300
		for i := 0; i < n; i++ {
			ds, err := f.CreateDataset(fmt.Sprintf("/dataset_with_a_fairly_long_name_%04d", i), nctype.Int, []int64{2})
			if err != nil {
				return fmt.Errorf("create %d: %w", i, err)
			}
			if err := ds.WriteAll(Select{Start: []int64{0}, Count: []int64{2}},
				nil, []int32{int32(i), int32(-i)}); err != nil {
				return err
			}
			ds.Close()
		}
		f.Close()
		f, err = OpenFile(c, fsys, "grow.h5", true, nil)
		if err != nil {
			return err
		}
		for _, i := range []int{0, 1, 150, 299} {
			ds, err := f.OpenDataset(fmt.Sprintf("/dataset_with_a_fairly_long_name_%04d", i))
			if err != nil {
				return fmt.Errorf("open %d after growth: %w", i, err)
			}
			got := make([]int32, 2)
			if err := ds.ReadAll(Select{Start: []int64{0}, Count: []int64{2}}, nil, got); err != nil {
				return err
			}
			if got[0] != int32(i) || got[1] != int32(-i) {
				return fmt.Errorf("dataset %d = %v", i, got)
			}
			ds.Close()
		}
		return f.Close()
	})
}

func TestOpenFileRejectsGarbage(t *testing.T) {
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		// A netCDF file is not an h5sim file.
		if c.Rank() == 0 {
			pf, _ := fsys.Create("not.h5", 0)
			pf.WriteAt(0, []byte("CDF\x01 definitely not hdf"), 0)
		}
		c.Barrier()
		if _, err := OpenFile(c, fsys, "not.h5", true, nil); err == nil {
			return errors.New("garbage accepted as h5sim file")
		}
		return nil
	})
}
