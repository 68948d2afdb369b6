// Flashblocks: AMR guard-cell output with the flexible API.
//
// This is the FLASH checkpoint pattern in miniature (paper §5.2): each
// process holds guarded AMR blocks in memory — interiors surrounded by
// guard cells that must not be written — and outputs the interiors of all
// blocks for each unknown with a single collective call. The guard
// stripping is described to PnetCDF with an MPI-datatype memory subarray
// (the flexible API), so no user-side packing loop is needed.
//
// Run with: go run ./examples/flashblocks
package main

import (
	"fmt"
	"log"

	"pnetcdf/internal/core"
	"pnetcdf/internal/flash"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/pfs"
)

func main() {
	cfg := flash.Config{NXB: 8, NYB: 8, NZB: 8, NGuard: 4, NVar: 3, NPlotVar: 2, BlocksPerProc: 4}
	const nprocs = 4
	fsys := pfs.New(pfs.BlueHorizon())

	err := mpi.Run(nprocs, mpi.DefaultNet(), func(comm *mpi.Comm) error {
		tot := nprocs * cfg.BlocksPerProc
		first := comm.Rank() * cfg.BlocksPerProc

		d, err := core.Create(comm, fsys, "blocks.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		bdim, _ := d.DefDim("blocks", int64(tot))
		zdim, _ := d.DefDim("z", int64(cfg.NZB))
		ydim, _ := d.DefDim("y", int64(cfg.NYB))
		xdim, _ := d.DefDim("x", int64(cfg.NXB))
		names := flash.UnknownNames(cfg.NVar)
		varids := make([]int, cfg.NVar)
		for i, n := range names {
			varids[i], err = d.DefVar(n, nctype.Double, []int{bdim, zdim, ydim, xdim})
			if err != nil {
				return err
			}
		}
		if err := d.EndDef(); err != nil {
			return err
		}

		// The guarded in-memory shape and the interior selection, once.
		gz := int64(cfg.NZB + 2*cfg.NGuard)
		gy := int64(cfg.NYB + 2*cfg.NGuard)
		gx := int64(cfg.NXB + 2*cfg.NGuard)
		memtype, err := mpitype.Subarray(
			[]int64{int64(cfg.BlocksPerProc), gz, gy, gx},
			[]int64{int64(cfg.BlocksPerProc), int64(cfg.NZB), int64(cfg.NYB), int64(cfg.NXB)},
			[]int64{0, int64(cfg.NGuard), int64(cfg.NGuard), int64(cfg.NGuard)}, 1)
		if err != nil {
			return err
		}
		for i, v := range varids {
			guarded := cfg.FillUnknown(i, first, cfg.BlocksPerProc)
			if err := d.PutVaraTypeAll(v,
				[]int64{int64(first), 0, 0, 0},
				[]int64{int64(cfg.BlocksPerProc), int64(cfg.NZB), int64(cfg.NYB), int64(cfg.NXB)},
				guarded, memtype); err != nil {
				return err
			}
		}
		if err := d.Close(); err != nil {
			return err
		}

		// Verify: read a neighbor's block interior and check no guard poison
		// leaked into the file.
		r, err := core.Open(comm, fsys, "blocks.nc", nctype.NoWrite, nil)
		if err != nil {
			return err
		}
		neighbor := (first + cfg.BlocksPerProc) % tot
		one := make([]float64, 1)
		if err := r.GetVaraAll(r.VarID("dens"),
			[]int64{int64(neighbor), 0, 0, 0}, []int64{1, 1, 1, 1}, one); err != nil {
			return err
		}
		want := flash.CellValue(0, neighbor, 0, 0, 0)
		if one[0] != want {
			return fmt.Errorf("rank %d: dens[%d] = %v, want %v", comm.Rank(), neighbor, one[0], want)
		}
		if comm.Rank() == 0 {
			fmt.Printf("wrote %d unknowns x %d blocks (interiors of %dx%dx%d+%d guards); cross-rank check OK\n",
				cfg.NVar, tot, cfg.NXB, cfg.NYB, cfg.NZB, cfg.NGuard)
		}
		return r.Close()
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("flashblocks example OK")
}
