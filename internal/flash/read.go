package flash

import (
	"fmt"

	"pnetcdf/internal/core"
	"pnetcdf/internal/h5sim"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/pfs"
)

// Checkpoint read-back: the paper's future-work question ("we are
// interested in seeing how read performance compares between PnetCDF and
// HDF5; perhaps without the additional synchronization of writes the
// performance is more comparable", §6). Each process reads its own blocks
// of every unknown back into guarded in-memory buffers — the restart path
// of the real FLASH code.

// ReadCheckpointPnetCDF reads every unknown's local blocks from a
// checkpoint written by WriteCheckpointPnetCDF, scattering into guarded
// buffers via the flexible API: one collective per unknown, or, with
// cfg.Queued, every unknown queued and one WaitAll.
func ReadCheckpointPnetCDF(comm *mpi.Comm, fsys *pfs.FS, path string, cfg Config, info *mpi.Info) (Report, error) {
	first := comm.Rank() * cfg.BlocksPerProc
	t0 := comm.Clock()
	d, err := core.Open(comm, fsys, path, nctype.NoWrite, info)
	if err != nil {
		return Report{}, err
	}
	gz, gy, gx := cfg.guardedDims()
	memtype, err := mpitype.Subarray(
		[]int64{int64(cfg.BlocksPerProc), int64(gz), int64(gy), int64(gx)},
		[]int64{int64(cfg.BlocksPerProc), int64(cfg.NZB), int64(cfg.NYB), int64(cfg.NXB)},
		[]int64{0, int64(cfg.NGuard), int64(cfg.NGuard), int64(cfg.NGuard)}, 1)
	if err != nil {
		return Report{}, err
	}
	// As in the writer, a rank death closes the file before its error
	// returns.
	fail := func(err error) (Report, error) {
		if _, ok := mpi.AsRevoked(err); ok {
			_ = d.Close()
		}
		return Report{}, err
	}
	var bytes int64
	var buf []float64
	for _, name := range UnknownNames(cfg.NVar) {
		v := d.VarID(name)
		if v < 0 {
			return Report{}, fmt.Errorf("flash: checkpoint missing %s", name)
		}
		fstart := []int64{int64(first), 0, 0, 0}
		fcount := []int64{int64(cfg.BlocksPerProc), int64(cfg.NZB), int64(cfg.NYB), int64(cfg.NXB)}
		// A queued read holds one buffer per unknown until WaitAll; the
		// per-variable read reuses one.
		if buf == nil || cfg.Queued {
			buf = make([]float64, cfg.BlocksPerProc*gz*gy*gx)
		}
		if cfg.Queued {
			_, err = d.IGetVaraType(v, fstart, fcount, buf, memtype)
		} else {
			err = d.GetVaraTypeAll(v, fstart, fcount, buf, memtype)
		}
		if err != nil {
			return fail(err)
		}
		bytes += memtype.Size() * 8
	}
	if cfg.Queued {
		if err := d.WaitAll(); err != nil {
			return fail(err)
		}
	}
	if err := d.Close(); err != nil {
		return Report{}, err
	}
	end := comm.AllreduceF64([]float64{comm.Clock()}, mpi.OpMax)[0]
	totBytes := comm.AllreduceI64([]int64{bytes}, mpi.OpSum)[0]
	return Report{Bytes: totBytes, Seconds: end - t0}, nil
}

// ReadCheckpointH5 reads every unknown back through the HDF5-style library
// (per-dataset collective open/read/close, memory hyperslab scatter).
func ReadCheckpointH5(comm *mpi.Comm, fsys *pfs.FS, path string, cfg Config, info *mpi.Info) (Report, error) {
	first := comm.Rank() * cfg.BlocksPerProc
	t0 := comm.Clock()
	f, err := h5sim.OpenFile(comm, fsys, path, true, info)
	if err != nil {
		return Report{}, err
	}
	gz, gy, gx := cfg.guardedDims()
	var bytes int64
	buf := make([]float64, cfg.BlocksPerProc*gz*gy*gx)
	msel := &h5sim.Select{
		Dims:  []int64{int64(cfg.BlocksPerProc), int64(gz), int64(gy), int64(gx)},
		Start: []int64{0, int64(cfg.NGuard), int64(cfg.NGuard), int64(cfg.NGuard)},
		Count: []int64{int64(cfg.BlocksPerProc), int64(cfg.NZB), int64(cfg.NYB), int64(cfg.NXB)},
	}
	for _, name := range UnknownNames(cfg.NVar) {
		ds, err := f.OpenDataset("/" + name)
		if err != nil {
			return Report{}, err
		}
		fsel := h5sim.Select{
			Start: []int64{int64(first), 0, 0, 0},
			Count: []int64{int64(cfg.BlocksPerProc), int64(cfg.NZB), int64(cfg.NYB), int64(cfg.NXB)},
		}
		if err := ds.ReadAll(fsel, msel, buf); err != nil {
			return Report{}, err
		}
		if err := ds.Close(); err != nil {
			return Report{}, err
		}
		bytes += int64(cfg.BlocksPerProc*cfg.NZB*cfg.NYB*cfg.NXB) * 8
	}
	if err := f.Close(); err != nil {
		return Report{}, err
	}
	end := comm.AllreduceF64([]float64{comm.Clock()}, mpi.OpMax)[0]
	totBytes := comm.AllreduceI64([]int64{bytes}, mpi.OpSum)[0]
	return Report{Bytes: totBytes, Seconds: end - t0}, nil
}
