// Package flash reimplements the FLASH I/O benchmark (Zingale et al.), the
// workload of the paper's Figure 7. FLASH is a block-structured AMR
// hydrodynamics code; its I/O benchmark recreates the primary data
// structures — per-process AMR sub-blocks of 8x8x8 or 16x16x16 cells with a
// perimeter of 4 guard cells, 80 blocks per process, 24 cell-centered
// unknowns — and produces three files per run:
//
//   - a checkpoint (all 24 unknowns, double precision),
//   - a plotfile with centered data (4 plot variables, single precision),
//   - a plotfile with corner data (the same variables interpolated to cell
//     corners).
//
// Every file also carries the AMR tree metadata (refinement level, node
// type, coordinates, block sizes, bounding boxes). The guard cells are held
// in memory but never written: the PnetCDF writer strips them with a
// flexible-API subarray memory type, the h5sim writer with a memory-space
// hyperslab — the same mechanism the respective real libraries use.
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

// Config sizes the benchmark.
type Config struct {
	NXB, NYB, NZB int // interior cells per block per dimension
	NGuard        int // guard cells on each side
	NVar          int // checkpoint unknowns (24 in FLASH)
	NPlotVar      int // plotfile variables (4 in the benchmark)
	BlocksPerProc int // 80 in the benchmark
	// Queued posts every unknown with the nonblocking flexible calls
	// (IPutVaraType, IGetVaraType) and completes them with one WaitAll,
	// instead of the published one collective call per unknown. The file
	// is the same to the byte.
	Queued bool
}

// Default8 is the paper's 8x8x8 configuration.
func Default8() Config {
	return Config{NXB: 8, NYB: 8, NZB: 8, NGuard: 4, NVar: 24, NPlotVar: 4, BlocksPerProc: 80}
}

// Default16 is the paper's 16x16x16 configuration.
func Default16() Config {
	c := Default8()
	c.NXB, c.NYB, c.NZB = 16, 16, 16
	return c
}

// UnknownNames returns FLASH-style variable names ("dens", "velx", ... then
// synthesized names up to n).
func UnknownNames(n int) []string {
	base := []string{
		"dens", "velx", "vely", "velz", "pres", "ener", "temp", "gamc",
		"game", "enuc", "gpot", "flam",
	}
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if i < len(base) {
			names = append(names, base[i])
		} else {
			names = append(names, fmt.Sprintf("ab%02d", i-len(base)))
		}
	}
	return names
}

// CellValue is the deterministic synthetic field: a function of the unknown
// index, the global block number and the cell coordinate, so any reader can
// verify any cell without reference data.
func CellValue(varIdx, globalBlock int, z, y, x int) float64 {
	return float64(varIdx+1)*1e3 + float64(globalBlock) + float64(z)*0.25 + float64(y)*0.0625 + float64(x)*0.015625
}

// cornerValue is the corner-interpolated field: the average of the (up to 8)
// adjacent cell-centered values, which the guarded block makes available
// without communication — exactly what the benchmark's corner plotfile does.
func cornerValue(varIdx, globalBlock int, z, y, x int) float64 {
	var sum float64
	for dz := -1; dz <= 0; dz++ {
		for dy := -1; dy <= 0; dy++ {
			for dx := -1; dx <= 0; dx++ {
				sum += CellValue(varIdx, globalBlock, z+dz, y+dy, x+dx)
			}
		}
	}
	return sum / 8
}

// guardedDims returns the in-memory block shape including guard cells.
func (cfg Config) guardedDims() (gz, gy, gx int) {
	return cfg.NZB + 2*cfg.NGuard, cfg.NYB + 2*cfg.NGuard, cfg.NXB + 2*cfg.NGuard
}

// FillUnknown builds the guarded in-memory blocks for one unknown:
// shape (blocks, gz, gy, gx) with the interior holding CellValue and the
// guard cells holding a poison value that must never appear in a file.
func (cfg Config) FillUnknown(varIdx, firstGlobalBlock, nblocks int) []float64 {
	gz, gy, gx := cfg.guardedDims()
	buf := make([]float64, nblocks*gz*gy*gx)
	for i := range buf {
		buf[i] = -9.99e33 // guard poison
	}
	g := cfg.NGuard
	for b := 0; b < nblocks; b++ {
		gb := firstGlobalBlock + b
		base := b * gz * gy * gx
		for z := 0; z < cfg.NZB; z++ {
			for y := 0; y < cfg.NYB; y++ {
				row := base + ((z+g)*gy+(y+g))*gx + g
				for x := 0; x < cfg.NXB; x++ {
					buf[row+x] = CellValue(varIdx, gb, z, y, x)
				}
			}
		}
	}
	return buf
}

// fillCorners builds the unguarded corner data for one unknown: shape
// (blocks, NZB+1, NYB+1, NXB+1).
func (cfg Config) fillCorners(varIdx, firstGlobalBlock, nblocks int) []float32 {
	cz, cy, cx := cfg.NZB+1, cfg.NYB+1, cfg.NXB+1
	buf := make([]float32, nblocks*cz*cy*cx)
	i := 0
	for b := 0; b < nblocks; b++ {
		gb := firstGlobalBlock + b
		for z := 0; z <= cfg.NZB; z++ {
			for y := 0; y <= cfg.NYB; y++ {
				for x := 0; x <= cfg.NXB; x++ {
					buf[i] = float32(cornerValue(varIdx, gb, z, y, x))
					i++
				}
			}
		}
	}
	return buf
}

// treeData generates the per-block AMR metadata for a process.
func treeData(first, n int) (lrefine, nodetype []int32, coords []float64) {
	lrefine = make([]int32, n)
	nodetype = make([]int32, n)
	coords = make([]float64, n*3)
	for b := 0; b < n; b++ {
		gb := first + b
		lrefine[b] = int32(1 + gb%4)
		nodetype[b] = int32(1)
		for d := 0; d < 3; d++ {
			coords[b*3+d] = float64(gb) + float64(d)*0.1
		}
	}
	return
}

// Report summarizes one output file.
type Report struct {
	Bytes   int64   // data bytes written by all processes
	Seconds float64 // virtual makespan of the output phase
}

// BandwidthMBps returns the aggregate bandwidth in MB/s.
func (r Report) BandwidthMBps() float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.Seconds / 1e6
}

// WriteCheckpointPnetCDF produces a checkpoint with the parallel netCDF
// library: one record-free variable per unknown of shape
// (tot_blocks, nzb, nyb, nxb) in double precision, plus tree metadata.
func WriteCheckpointPnetCDF(comm *mpi.Comm, fsys *pfs.FS, path string, cfg Config, info *mpi.Info) (Report, error) {
	return writePnetCDF(comm, fsys, path, cfg, info, cfg.NVar, false)
}

// WritePlotfilePnetCDF produces a centered plotfile (NPlotVar float32
// variables).
func WritePlotfilePnetCDF(comm *mpi.Comm, fsys *pfs.FS, path string, cfg Config, info *mpi.Info) (Report, error) {
	return writePnetCDF(comm, fsys, path, cfg, info, cfg.NPlotVar, false)
}

// WriteCornerPlotfilePnetCDF produces a corner plotfile (NPlotVar float32
// variables at cell corners).
func WriteCornerPlotfilePnetCDF(comm *mpi.Comm, fsys *pfs.FS, path string, cfg Config, info *mpi.Info) (Report, error) {
	return writePnetCDF(comm, fsys, path, cfg, info, cfg.NPlotVar, true)
}

func writePnetCDF(comm *mpi.Comm, fsys *pfs.FS, path string, cfg Config, info *mpi.Info, nvar int, corners bool) (Report, error) {
	nprocs := comm.Size()
	tot := nprocs * cfg.BlocksPerProc
	first := comm.Rank() * cfg.BlocksPerProc
	checkpoint := nvar == cfg.NVar && !corners

	t0 := comm.Clock()
	d, err := core.Create(comm, fsys, path, nctype.Bit64Offset, info)
	if err != nil {
		return Report{}, err
	}
	// Dimensions.
	dimBlocks, _ := d.DefDim("tot_blocks", int64(tot))
	zname, yname, xname := cfg.NZB, cfg.NYB, cfg.NXB
	if corners {
		zname, yname, xname = cfg.NZB+1, cfg.NYB+1, cfg.NXB+1
	}
	dimZ, _ := d.DefDim("nzb", int64(zname))
	dimY, _ := d.DefDim("nyb", int64(yname))
	dimX, _ := d.DefDim("nxb", int64(xname))
	dim3, _ := d.DefDim("ndim", 3)
	// Tree metadata variables.
	vLref, _ := d.DefVar("lrefine", nctype.Int, []int{dimBlocks})
	vNode, _ := d.DefVar("nodetype", nctype.Int, []int{dimBlocks})
	vCoord, _ := d.DefVar("coordinates", nctype.Double, []int{dimBlocks, dim3})
	// Unknowns.
	typ := nctype.Double
	if !checkpoint {
		typ = nctype.Float
	}
	names := UnknownNames(nvar)
	varids := make([]int, nvar)
	for i, name := range names {
		v, err := d.DefVar(name, typ, []int{dimBlocks, dimZ, dimY, dimX})
		if err != nil {
			return Report{}, err
		}
		varids[i] = v
	}
	if err := d.EndDef(); err != nil {
		return Report{}, err
	}

	// fail returns a failed call's error. After a rank death, which every
	// survivor sees as the same *mpi.revokedError, it closes the file first:
	// on a revoked communicator Close runs no collective, releases the
	// handle and returns that same revocation.
	fail := func(err error) (Report, error) {
		if _, ok := mpi.AsRevoked(err); ok {
			_ = d.Close()
		}
		return Report{}, err
	}

	// Tree metadata.
	lref, node, coords := treeData(first, cfg.BlocksPerProc)
	bstart := []int64{int64(first)}
	bcount := []int64{int64(cfg.BlocksPerProc)}
	if err := d.PutVaraAll(vLref, bstart, bcount, lref); err != nil {
		return fail(err)
	}
	if err := d.PutVaraAll(vNode, bstart, bcount, node); err != nil {
		return fail(err)
	}
	if err := d.PutVaraAll(vCoord, []int64{int64(first), 0}, []int64{int64(cfg.BlocksPerProc), 3}, coords); err != nil {
		return fail(err)
	}

	var bytes int64
	gz, gy, gx := cfg.guardedDims()
	for i := range varids {
		fstart := []int64{int64(first), 0, 0, 0}
		fcount := []int64{int64(cfg.BlocksPerProc), int64(zname), int64(yname), int64(xname)}
		if corners {
			buf := cfg.fillCorners(i, first, cfg.BlocksPerProc)
			if cfg.Queued {
				_, err = d.IPutVara(varids[i], fstart, fcount, buf)
			} else {
				err = d.PutVaraAll(varids[i], fstart, fcount, buf)
			}
			if err != nil {
				return fail(err)
			}
			bytes += int64(len(buf)) * 4
			continue
		}
		// Centered data: strip guard cells with a flexible-API memory type,
		// straight from the guarded in-memory blocks.
		buf := cfg.FillUnknown(i, first, cfg.BlocksPerProc)
		memtype, err := mpitype.Subarray(
			[]int64{int64(cfg.BlocksPerProc), int64(gz), int64(gy), int64(gx)},
			[]int64{int64(cfg.BlocksPerProc), int64(cfg.NZB), int64(cfg.NYB), int64(cfg.NXB)},
			[]int64{0, int64(cfg.NGuard), int64(cfg.NGuard), int64(cfg.NGuard)}, 1)
		if err != nil {
			return fail(err)
		}
		if cfg.Queued {
			_, err = d.IPutVaraType(varids[i], fstart, fcount, buf, memtype)
		} else {
			err = d.PutVaraTypeAll(varids[i], fstart, fcount, buf, memtype)
		}
		if err != nil {
			return fail(err)
		}
		bytes += memtype.Size() * int64(typ.Size())
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

// WriteCheckpointH5 produces the checkpoint with the HDF5-style library.
func WriteCheckpointH5(comm *mpi.Comm, fsys *pfs.FS, path string, cfg Config, info *mpi.Info) (Report, error) {
	return writeH5(comm, fsys, path, cfg, info, cfg.NVar, false)
}

// WritePlotfileH5 produces the centered plotfile with the HDF5-style
// library.
func WritePlotfileH5(comm *mpi.Comm, fsys *pfs.FS, path string, cfg Config, info *mpi.Info) (Report, error) {
	return writeH5(comm, fsys, path, cfg, info, cfg.NPlotVar, false)
}

// WriteCornerPlotfileH5 produces the corner plotfile with the HDF5-style
// library.
func WriteCornerPlotfileH5(comm *mpi.Comm, fsys *pfs.FS, path string, cfg Config, info *mpi.Info) (Report, error) {
	return writeH5(comm, fsys, path, cfg, info, cfg.NPlotVar, true)
}

func writeH5(comm *mpi.Comm, fsys *pfs.FS, path string, cfg Config, info *mpi.Info, nvar int, corners bool) (Report, error) {
	nprocs := comm.Size()
	tot := nprocs * cfg.BlocksPerProc
	first := comm.Rank() * cfg.BlocksPerProc
	checkpoint := nvar == cfg.NVar && !corners

	t0 := comm.Clock()
	f, err := h5sim.CreateFile(comm, fsys, path, info)
	if err != nil {
		return Report{}, err
	}
	zname, yname, xname := cfg.NZB, cfg.NYB, cfg.NXB
	if corners {
		zname, yname, xname = cfg.NZB+1, cfg.NYB+1, cfg.NXB+1
	}
	// Tree metadata datasets (each its own collective create/write/close).
	lref, node, coords := treeData(first, cfg.BlocksPerProc)
	writeMeta := func(name string, typ nctype.Type, dims []int64, fsel h5sim.Select, buf any) error {
		ds, err := f.CreateDataset(name, typ, dims)
		if err != nil {
			return err
		}
		if err := ds.WriteAll(fsel, nil, buf); err != nil {
			return err
		}
		return ds.Close()
	}
	if err := writeMeta("/lrefine", nctype.Int, []int64{int64(tot)},
		h5sim.Select{Start: []int64{int64(first)}, Count: []int64{int64(cfg.BlocksPerProc)}}, lref); err != nil {
		return Report{}, err
	}
	if err := writeMeta("/nodetype", nctype.Int, []int64{int64(tot)},
		h5sim.Select{Start: []int64{int64(first)}, Count: []int64{int64(cfg.BlocksPerProc)}}, node); err != nil {
		return Report{}, err
	}
	if err := writeMeta("/coordinates", nctype.Double, []int64{int64(tot), 3},
		h5sim.Select{Start: []int64{int64(first), 0}, Count: []int64{int64(cfg.BlocksPerProc), 3}}, coords); err != nil {
		return Report{}, err
	}

	typ := nctype.Double
	if !checkpoint {
		typ = nctype.Float
	}
	var bytes int64
	gz, gy, gx := cfg.guardedDims()
	names := UnknownNames(nvar)
	for i, name := range names {
		ds, err := f.CreateDataset("/"+name, typ, []int64{int64(tot), int64(zname), int64(yname), int64(xname)})
		if err != nil {
			return Report{}, err
		}
		fsel := h5sim.Select{
			Start: []int64{int64(first), 0, 0, 0},
			Count: []int64{int64(cfg.BlocksPerProc), int64(zname), int64(yname), int64(xname)},
		}
		if corners {
			buf := cfg.fillCorners(i, first, cfg.BlocksPerProc)
			if err := ds.WriteAll(fsel, nil, buf); err != nil {
				return Report{}, err
			}
			bytes += int64(len(buf)) * 4
		} else {
			buf := cfg.FillUnknown(i, first, cfg.BlocksPerProc)
			msel := &h5sim.Select{
				Dims:  []int64{int64(cfg.BlocksPerProc), int64(gz), int64(gy), int64(gx)},
				Start: []int64{0, int64(cfg.NGuard), int64(cfg.NGuard), int64(cfg.NGuard)},
				Count: []int64{int64(cfg.BlocksPerProc), int64(cfg.NZB), int64(cfg.NYB), int64(cfg.NXB)},
			}
			if err := ds.WriteAll(fsel, msel, buf); err != nil {
				return Report{}, err
			}
			bytes += int64(cfg.BlocksPerProc*cfg.NZB*cfg.NYB*cfg.NXB) * int64(typ.Size())
		}
		if err := ds.Close(); err != nil {
			return Report{}, err
		}
	}
	if err := f.Close(); err != nil {
		return Report{}, err
	}
	end := comm.AllreduceF64([]float64{comm.Clock()}, mpi.OpMax)[0]
	totBytes := comm.AllreduceI64([]int64{bytes}, mpi.OpSum)[0]
	return Report{Bytes: totBytes, Seconds: end - t0}, nil
}
