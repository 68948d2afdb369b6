package bench

import (
	"fmt"
	"strconv"

	"pnetcdf/internal/core"
	"pnetcdf/internal/flash"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpiio"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/pfs"
	"pnetcdf/internal/span"
)

// Ablations quantify the design choices DESIGN.md §5 calls out. Each
// returns virtual-time measurements for the choice made by PnetCDF and its
// alternative, so "how much did this decision buy" is a number.

// AblationResult is one on/off comparison.
type AblationResult struct {
	Name     string
	Chosen   float64 // seconds with the design as built
	Baseline float64 // seconds with the alternative
}

// Speedup returns Baseline/Chosen.
func (a AblationResult) Speedup() float64 {
	if a.Chosen <= 0 {
		return 0
	}
	return a.Baseline / a.Chosen
}

// String formats the comparison.
func (a AblationResult) String() string {
	return fmt.Sprintf("%-28s chosen %8.4fs  alternative %8.4fs  speedup %5.2fx",
		a.Name, a.Chosen, a.Baseline, a.Speedup())
}

// legTrace, when set, has every rank of an ablation record spans, and
// receives each measured leg's makespan with the spans the ranks recorded
// in it. Tests use it to hold the legs to their clocks.
var legTrace func(makespan float64, spans []span.Span)

// runRanks is mpi.Run on the machine's network, with every rank recording
// spans when legTrace is set.
func runRanks(m MachineSpec, nprocs int, body func(c *mpi.Comm) error) error {
	return mpi.Run(nprocs, m.Net, func(c *mpi.Comm) error {
		if legTrace != nil {
			c.Proc().SetSpans(span.NewRecorder(c.Rank(), c.Proc().Clock))
		}
		return body(c)
	})
}

// timed runs one measured leg on every rank from zeroed clocks and server
// queues, and stores its makespan — the latest rank clock when leg has
// returned everywhere — in *makespan on rank 0. A write leg ends in Sync, so
// the writes still in flight at the servers are on the clock (DESIGN.md §13).
func timed(c *mpi.Comm, fsys *pfs.FS, makespan *float64, leg func() error) error {
	c.Proc().SetClock(0)
	fsys.ResetClock()
	c.Proc().Spans().Reset()
	c.Barrier()
	t0 := c.Clock()
	if err := leg(); err != nil {
		return err
	}
	end := c.AllreduceF64([]float64{c.Clock()}, mpi.OpMax)[0]
	if c.Rank() == 0 {
		*makespan = end - t0
	}
	if legTrace != nil {
		spans, _ := span.Gather(c, c.Proc().Spans())
		if c.Rank() == 0 {
			legTrace(end-t0, spans)
		}
	}
	return nil
}

// AblationTwoPhase compares collective (two-phase) and independent writes of
// an X-partitioned array — the optimization PnetCDF inherits from MPI-IO.
func AblationTwoPhase(m MachineSpec, dims [3]int64, nprocs int) (AblationResult, error) {
	run := func(enable bool) (float64, error) {
		fsys := m.NewFS()
		info := mpi.NewInfo()
		if !enable {
			info.Set("romio_cb_write", "disable")
		}
		var makespan float64
		err := runRanks(m, nprocs, func(c *mpi.Comm) error {
			d, err := core.Create(c, fsys, "ab.nc", nctype.Clobber, info)
			if err != nil {
				return err
			}
			z, _ := d.DefDim("Z", dims[0])
			y, _ := d.DefDim("Y", dims[1])
			x, _ := d.DefDim("X", dims[2])
			v, _ := d.DefVar("tt", nctype.Float, []int{z, y, x})
			if err := d.EndDef(); err != nil {
				return err
			}
			start, count := Decompose(PartX, dims, nprocs, c.Rank())
			buf := make([]float32, count[0]*count[1]*count[2])
			err = timed(c, fsys, &makespan, func() error {
				if err := d.PutVaraAll(v, start[:], count[:], buf); err != nil {
					return err
				}
				return d.Sync()
			})
			if err != nil {
				return err
			}
			return d.Close()
		})
		return makespan, err
	}
	on, err := run(true)
	if err != nil {
		return AblationResult{}, err
	}
	off, err := run(false)
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{Name: "two-phase collective I/O", Chosen: on, Baseline: off}, nil
}

// AblationSieving compares data sieving against per-segment reads for an
// independent strided read.
func AblationSieving(m MachineSpec, dims [3]int64, nprocs int) (AblationResult, error) {
	run := func(enable bool) (float64, error) {
		fsys := m.NewFS()
		info := mpi.NewInfo().Set("romio_cb_read", "disable").Set("romio_cb_write", "disable")
		if !enable {
			info.Set("romio_ds_read", "disable")
		}
		var makespan float64
		err := runRanks(m, nprocs, func(c *mpi.Comm) error {
			d, err := core.Create(c, fsys, "ds.nc", nctype.Clobber, info)
			if err != nil {
				return err
			}
			z, _ := d.DefDim("Z", dims[0])
			y, _ := d.DefDim("Y", dims[1])
			x, _ := d.DefDim("X", dims[2])
			v, _ := d.DefVar("tt", nctype.Float, []int{z, y, x})
			if err := d.EndDef(); err != nil {
				return err
			}
			start, count := Decompose(PartX, dims, nprocs, c.Rank())
			buf := make([]float32, count[0]*count[1]*count[2])
			if err := d.BeginIndepData(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				whole := make([]float32, dims[0]*dims[1]*dims[2])
				if err := d.PutVara(v, []int64{0, 0, 0}, dims[:], whole); err != nil {
					return err
				}
			}
			if err := d.EndIndepData(); err != nil {
				return err
			}
			err = timed(c, fsys, &makespan, func() error {
				if err := d.BeginIndepData(); err != nil {
					return err
				}
				if err := d.GetVara(v, start[:], count[:], buf); err != nil {
					return err
				}
				return d.EndIndepData()
			})
			if err != nil {
				return err
			}
			return d.Close()
		})
		return makespan, err
	}
	on, err := run(true)
	if err != nil {
		return AblationResult{}, err
	}
	off, err := run(false)
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{Name: "data sieving (indep. strided read)", Chosen: on, Baseline: off}, nil
}

// AblationHeaderStrategy compares PnetCDF's root-reads-then-broadcast header
// handling against every process reading the header from the file — the
// design decision of paper §4.2.1.
func AblationHeaderStrategy(m MachineSpec, nvars, nprocs int) (AblationResult, error) {
	fsys := m.NewFS()
	// Build a dataset with a sizable header.
	err := mpi.Run(1, m.Net, func(c *mpi.Comm) error {
		d, err := core.Create(c, fsys, "hdr.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		x, _ := d.DefDim("x", 16)
		for i := 0; i < nvars; i++ {
			if _, err := d.DefVar(fmt.Sprintf("variable_with_long_name_%04d", i), nctype.Double, []int{x}); err != nil {
				return err
			}
		}
		return d.Close()
	})
	if err != nil {
		return AblationResult{}, err
	}
	// Chosen: collective open (root read + broadcast).
	var chosen float64
	err = runRanks(m, nprocs, func(c *mpi.Comm) error {
		var d *core.Dataset
		err := timed(c, fsys, &chosen, func() (err error) {
			d, err = core.Open(c, fsys, "hdr.nc", nctype.NoWrite, nil)
			return err
		})
		if err != nil {
			return err
		}
		return d.Close()
	})
	if err != nil {
		return AblationResult{}, err
	}
	// Alternative: every rank reads the header itself.
	var baseline float64
	err = runRanks(m, nprocs, func(c *mpi.Comm) error {
		var f *mpiio.File
		err := timed(c, fsys, &baseline, func() (err error) {
			if f, err = mpiio.Open(c, fsys, "hdr.nc", mpiio.ModeRdOnly, nil); err != nil {
				return err
			}
			sz, _ := f.Size()
			return f.ReadRaw(make([]byte, sz), 0)
		})
		if err != nil {
			return err
		}
		return f.Close()
	})
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{Name: "header: root read + bcast", Chosen: chosen, Baseline: baseline}, nil
}

// AblationRecordBatch compares per-variable record writes against the
// nonblocking batched path (IPutVara + WaitAll) for many record variables —
// the record-access optimization of paper §4.2.2.
func AblationRecordBatch(m MachineSpec, nvars, nrecs, nprocs int, perRank int64) (AblationResult, error) {
	run := func(batch bool) (float64, error) {
		fsys := m.NewFS()
		var makespan float64
		err := runRanks(m, nprocs, func(c *mpi.Comm) error {
			d, err := core.Create(c, fsys, "rec.nc", nctype.Clobber, nil)
			if err != nil {
				return err
			}
			tdim, _ := d.DefDim("t", 0)
			xdim, _ := d.DefDim("x", perRank*int64(nprocs))
			varids := make([]int, nvars)
			for i := range varids {
				varids[i], _ = d.DefVar(fmt.Sprintf("u%02d", i), nctype.Float, []int{tdim, xdim})
			}
			if err := d.EndDef(); err != nil {
				return err
			}
			buf := make([]float32, perRank)
			start := []int64{0, int64(c.Rank()) * perRank}
			count := []int64{1, perRank}
			err = timed(c, fsys, &makespan, func() error {
				for rec := 0; rec < nrecs; rec++ {
					start[0] = int64(rec)
					if batch {
						for _, v := range varids {
							if _, err := d.IPutVara(v, start, count, buf); err != nil {
								return err
							}
						}
						if err := d.WaitAll(); err != nil {
							return err
						}
					} else {
						for _, v := range varids {
							if err := d.PutVaraAll(v, start, count, buf); err != nil {
								return err
							}
						}
					}
				}
				return d.Sync()
			})
			if err != nil {
				return err
			}
			return d.Close()
		})
		return makespan, err
	}
	batched, err := run(true)
	if err != nil {
		return AblationResult{}, err
	}
	oneByOne, err := run(false)
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{Name: "record batching (iput+waitall)", Chosen: batched, Baseline: oneByOne}, nil
}

// AblationLayout compares writing n small fixed variables through the linear
// netCDF layout against the dispersed h5sim layout (paper §4.3's layout
// argument), using the FLASH-style writers at matched volume.
func AblationLayout(m MachineSpec, nprocs int) (AblationResult, error) {
	opt := Fig7Options{
		Machine: m,
		File:    FlashPlotfile,
		Procs:   []int{nprocs},
	}
	opt.Config.NXB, opt.Config.NYB, opt.Config.NZB = 8, 8, 8
	opt.Config.NGuard = 4
	opt.Config.NVar = 24
	opt.Config.NPlotVar = 8
	opt.Config.BlocksPerProc = 16
	nc, _, err := runFlashOnce(opt, nprocs, false)
	if err != nil {
		return AblationResult{}, err
	}
	h5, _, err := runFlashOnce(opt, nprocs, true)
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{Name: "linear layout vs dispersed", Chosen: nc.Seconds, Baseline: h5.Seconds}, nil
}

// AblationWriteAggregators measures the default count of collective-write
// aggregators — one per I/O server — against one per rank, which an explicit
// cb_nodes equal to the rank count still gives, on a FLASH checkpoint. Each
// file domain touches every server it spans with a request of its own, so
// fewer, wider domains cost the servers fewer seeks; the write-behind keeps
// the wider domain's longer client-link transfer off the aggregators' clocks
// (DESIGN.md §12).
func AblationWriteAggregators(m MachineSpec, cfg flash.Config, nprocs int) (AblationResult, error) {
	opt := Fig7Options{Machine: m, Config: cfg, File: FlashCheckpoint, Discard: true}
	perServer, _, err := runFlashOnce(opt, nprocs, false)
	if err != nil {
		return AblationResult{}, err
	}
	opt.Hints = mpi.NewInfo().Set("cb_nodes", strconv.Itoa(nprocs))
	perRank, _, err := runFlashOnce(opt, nprocs, false)
	if err != nil {
		return AblationResult{}, fmt.Errorf("cb_nodes=%d: %w", nprocs, err)
	}
	return AblationResult{Name: "write aggregators: one per server (Frost FLASH)", Chosen: perServer.Seconds, Baseline: perRank.Seconds}, nil
}
