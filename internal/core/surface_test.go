package core

import (
	"errors"
	"fmt"
	"testing"

	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/nctype"
)

// TestFullAPISurface sweeps the remaining public surface: inquiry helpers,
// every independent access method, the strided flexible collectives, and
// attribute lifecycle in the parallel library.
func TestFullAPISurface(t *testing.T) {
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		d, flux, grid, err := createStandard(c, fsys, "surface.nc")
		if err != nil {
			return err
		}
		// Inquiry coverage.
		if d.NumDims() != 3 || d.NumVars() != 2 {
			return fmt.Errorf("NumDims/NumVars = %d/%d", d.NumDims(), d.NumVars())
		}
		if d.UnlimitedDimID() != d.DimID("time") {
			return fmt.Errorf("UnlimitedDimID = %d", d.UnlimitedDimID())
		}
		shape, err := d.VarShape(grid)
		if err != nil || len(shape) != 2 || shape[0] != 4 || shape[1] != 8 {
			return fmt.Errorf("VarShape = %v (%v)", shape, err)
		}
		if _, err := d.VarShape(99); !errors.Is(err, nctype.ErrNotVar) {
			return fmt.Errorf("VarShape(99): %v", err)
		}
		if d.Comm().Size() != 2 {
			return errors.New("Comm() wrong")
		}
		// Attribute lifecycle.
		names, err := d.AttrNames(flux)
		if err != nil || len(names) != 1 || names[0] != "units" {
			return fmt.Errorf("AttrNames = %v (%v)", names, err)
		}
		if err := d.Redef(); err != nil {
			return err
		}
		if err := d.PutAttr(flux, "doomed", nctype.Int, 1); err != nil {
			return err
		}
		if err := d.DelAttr(flux, "doomed"); err != nil {
			return err
		}
		if err := d.DelAttr(flux, "doomed"); !errors.Is(err, nctype.ErrNotAtt) {
			return fmt.Errorf("double DelAttr: %v", err)
		}
		if err := d.EndDef(); err != nil {
			return err
		}
		// Collective strided flexible write/read (PutVarsTypeAll).
		memtype, err := identityType(4)
		if err != nil {
			return err
		}
		vals := []int32{int32(c.Rank()*4 + 1), int32(c.Rank()*4 + 2), int32(c.Rank()*4 + 3), int32(c.Rank()*4 + 4)}
		if err := d.PutVarsTypeAll(grid, []int64{int64(c.Rank()), 0}, []int64{1, 4},
			[]int64{1, 2}, vals, memtype); err != nil {
			return err
		}
		back := make([]int32, 4)
		if err := d.GetVarsTypeAll(grid, []int64{int64(c.Rank()), 0}, []int64{1, 4},
			[]int64{1, 2}, back, memtype); err != nil {
			return err
		}
		for i := range vals {
			if back[i] != vals[i] {
				return fmt.Errorf("strided flexible = %v", back)
			}
		}
		// Independent access methods, all five shapes.
		if err := d.BeginIndepData(); err != nil {
			return err
		}
		row := int64(2 + c.Rank())
		if err := d.PutVara(grid, []int64{row, 0}, []int64{1, 8},
			[]int32{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
			return err
		}
		got := make([]int32, 8)
		if err := d.GetVara(grid, []int64{row, 0}, []int64{1, 8}, got); err != nil {
			return err
		}
		if got[7] != 8 {
			return fmt.Errorf("indep vara = %v", got)
		}
		if err := d.PutVars(grid, []int64{row, 0}, []int64{1, 4}, []int64{1, 2},
			[]int32{10, 20, 30, 40}); err != nil {
			return err
		}
		sv := make([]int32, 4)
		if err := d.GetVars(grid, []int64{row, 0}, []int64{1, 4}, []int64{1, 2}, sv); err != nil {
			return err
		}
		if sv[0] != 10 || sv[3] != 40 {
			return fmt.Errorf("indep vars = %v", sv)
		}
		if err := d.PutVarm(grid, []int64{row, 0}, []int64{1, 2}, nil, []int64{2, 1},
			[]int32{-1, -2}); err != nil {
			return err
		}
		mv := make([]int32, 2)
		if err := d.GetVarm(grid, []int64{row, 0}, []int64{1, 2}, nil, []int64{2, 1}, mv); err != nil {
			return err
		}
		if mv[0] != -1 || mv[1] != -2 {
			return fmt.Errorf("indep varm = %v", mv)
		}
		if err := d.EndIndepData(); err != nil {
			return err
		}
		// Collective varm read (GetVarmAll).
		gm := make([]int32, 2)
		if err := d.GetVarmAll(grid, []int64{int64(c.Rank()), 0}, []int64{1, 2},
			nil, []int64{2, 1}, gm); err != nil {
			return err
		}
		return d.Close()
	})
}

// identityType builds a contiguous element-unit memory type of n elements.
func identityType(n int64) (mpitype.Datatype, error) {
	return mpitype.Subarray([]int64{n}, []int64{n}, []int64{0}, 1)
}
