// Restart: the checkpoint/restart cycle of a parallel simulation — write a
// FLASH-style checkpoint with one process count, crash, and restart with a
// *different* process count. Because the checkpoint is a plain netCDF file
// and PnetCDF reads it with arbitrary decompositions, the restart just
// works; no per-process files to shuffle (the paper's Figure 2(b) problem).
//
// Run with: go run ./examples/restart
package main

import (
	"fmt"
	"log"

	"pnetcdf/internal/flash"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/pfs"
)

func main() {
	cfg := flash.Config{NXB: 8, NYB: 8, NZB: 8, NGuard: 4, NVar: 4, NPlotVar: 2, BlocksPerProc: 6}
	fsys := pfs.New(pfs.BlueHorizon())

	// Phase 1: a 6-process run writes its checkpoint and "crashes".
	err := mpi.Run(6, mpi.DefaultNet(), func(comm *mpi.Comm) error {
		rep, err := flash.WriteCheckpointPnetCDF(comm, fsys, "sim_chk_0042.nc", cfg, nil)
		if err != nil {
			return err
		}
		if comm.Rank() == 0 {
			fmt.Printf("phase 1: 6 ranks wrote %d KB checkpoint at %.0f sim-MB/s\n",
				rep.Bytes>>10, rep.BandwidthMBps())
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// Phase 2: restart with 4 processes. 36 global blocks redistribute as
	// 9 per process instead of 6 — a decomposition the writer never saw.
	restartCfg := cfg
	restartCfg.BlocksPerProc = 9
	err = mpi.Run(4, mpi.DefaultNet(), func(comm *mpi.Comm) error {
		rep, err := flash.ReadCheckpointPnetCDF(comm, fsys, "sim_chk_0042.nc", restartCfg, nil)
		if err != nil {
			return err
		}
		if comm.Rank() == 0 {
			fmt.Printf("phase 2: 4 ranks re-read %d KB at %.0f sim-MB/s with a new decomposition\n",
				rep.Bytes>>10, rep.BandwidthMBps())
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("restart example OK")
}
