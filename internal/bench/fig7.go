package bench

import (
	"fmt"
	"os"

	"pnetcdf/internal/flash"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/pfs"
	"pnetcdf/internal/span"
)

// FlashFile selects which of the three FLASH output files to benchmark.
type FlashFile int

// The three outputs of one FLASH I/O run.
const (
	FlashCheckpoint FlashFile = iota
	FlashPlotfile
	FlashCorners
)

// String names the output like the paper's chart titles.
func (f FlashFile) String() string {
	switch f {
	case FlashCheckpoint:
		return "Checkpoint"
	case FlashPlotfile:
		return "Plotfiles"
	case FlashCorners:
		return "Plotfiles w/corners"
	}
	return "?"
}

// Figure7 holds one chart of the paper's Figure 7: aggregate bandwidth of
// one FLASH output file, PnetCDF vs the HDF5-style library, across process
// counts.
type Figure7 struct {
	Machine string
	File    FlashFile
	Block   string // "8x8x8" or "16x16x16"
	Procs   []int
	PnetCDF []float64 // MB/s
	HDF5    []float64 // MB/s
	// Stats[i] is the reduced iostat summary of the PnetCDF run with
	// Procs[i] processes (nil unless Fig7Options.Stats).
	Stats []*iostat.Summary
}

// Fig7Options configures a Figure 7 run.
type Fig7Options struct {
	Machine MachineSpec
	Config  flash.Config
	File    FlashFile
	Procs   []int
	Discard bool
	// Read measures checkpoint read-back instead of writing — the paper's
	// future-work comparison (§6). Only meaningful with FlashCheckpoint.
	Read bool
	// Stats enables per-rank iostat counters for the PnetCDF runs; the
	// reduced summaries land in Figure7.Stats.
	Stats bool
	// Trace, when non-nil, receives I/O events from the PnetCDF runs.
	Trace *iostat.Trace
	// Spans, when non-nil, enables per-rank span recording for the PnetCDF
	// runs; each run's cross-rank merge replaces the sink's contents, so
	// after the sweep it holds the largest (last) run's spans.
	Spans *span.Sink
	// Fault injects deterministic transient faults into the runs; the
	// retry counters in Stats show the recovery cost.
	Fault FaultOptions
	// Hints are MPI-IO hints passed to the PnetCDF runs (e.g.
	// cb_buffer_size=65536). Nil uses the defaults.
	Hints *mpi.Info
	// DumpFile, when non-empty, writes the raw image of each PnetCDF run's
	// output file to this host path (later runs overwrite earlier ones, so
	// single-point sweeps give a deterministic artifact). Used for
	// byte-identity checks between hint settings (ncdiff);
	// incompatible with Discard, which drops the data being dumped.
	DumpFile string
}

// RunFigure7 measures one chart.
func RunFigure7(opt Fig7Options) (*Figure7, error) {
	block := fmt.Sprintf("%dx%dx%d", opt.Config.NXB, opt.Config.NYB, opt.Config.NZB)
	if opt.Read {
		block += ", read-back"
	}
	fig := &Figure7{
		Machine: opt.Machine.Name,
		File:    opt.File,
		Block:   block,
		Procs:   opt.Procs,
	}
	for _, p := range opt.Procs {
		nc, sum, err := runFlashOnce(opt, p, false)
		if err != nil {
			return nil, fmt.Errorf("pnetcdf %d procs: %w", p, err)
		}
		h5, _, err := runFlashOnce(opt, p, true)
		if err != nil {
			return nil, fmt.Errorf("hdf5 %d procs: %w", p, err)
		}
		fig.PnetCDF = append(fig.PnetCDF, nc.BandwidthMBps())
		fig.HDF5 = append(fig.HDF5, h5.BandwidthMBps())
		fig.Stats = append(fig.Stats, sum)
	}
	return fig, nil
}

func runFlashOnce(opt Fig7Options, nprocs int, hdf5 bool) (flash.Report, *iostat.Summary, error) {
	if hdf5 {
		// Rank kills target the PnetCDF failover path; the HDF5 comparison
		// run has no failover and would just lose a rank.
		opt.Fault.KillPoint = ""
	}
	cfg := opt.Machine.FS
	cfg.Discard = opt.Discard
	fsys := pfs.New(cfg)
	opt.Fault.apply(fsys)
	var rep flash.Report
	var sum *iostat.Summary
	collect := opt.Stats && !hdf5
	err := mpi.Run(nprocs, opt.Machine.Net, func(c *mpi.Comm) error {
		if collect {
			c.Proc().SetStats(iostat.New())
		}
		if !hdf5 {
			c.Proc().SetTrace(opt.Trace)
			if opt.Spans != nil {
				proc := c.Proc()
				proc.SetSpans(span.NewRecorder(c.Rank(), proc.Clock))
			}
		}
		var r flash.Report
		var err error
		switch {
		case opt.Read && hdf5:
			if _, err = flash.WriteCheckpointH5(c, fsys, "f.h5", opt.Config, nil); err != nil {
				return err
			}
			fsys.ResetClock()
			c.Proc().SetClock(0)
			c.Barrier()
			r, err = flash.ReadCheckpointH5(c, fsys, "f.h5", opt.Config, nil)
		case opt.Read:
			if _, err = flash.WriteCheckpointPnetCDF(c, fsys, "f.nc", opt.Config, opt.Hints); err != nil {
				return err
			}
			fsys.ResetClock()
			c.Proc().SetClock(0)
			c.Proc().Stats().Reset()
			c.Proc().Spans().Reset()
			c.Barrier()
			r, err = flash.ReadCheckpointPnetCDF(c, fsys, "f.nc", opt.Config, opt.Hints)
		case hdf5 && opt.File == FlashCheckpoint:
			r, err = flash.WriteCheckpointH5(c, fsys, "f.h5", opt.Config, nil)
		case hdf5 && opt.File == FlashPlotfile:
			r, err = flash.WritePlotfileH5(c, fsys, "f.h5", opt.Config, nil)
		case hdf5 && opt.File == FlashCorners:
			r, err = flash.WriteCornerPlotfileH5(c, fsys, "f.h5", opt.Config, nil)
		case opt.File == FlashCheckpoint:
			r, err = flash.WriteCheckpointPnetCDF(c, fsys, "f.nc", opt.Config, opt.Hints)
		case opt.File == FlashPlotfile:
			r, err = flash.WritePlotfilePnetCDF(c, fsys, "f.nc", opt.Config, opt.Hints)
		default:
			r, err = flash.WriteCornerPlotfilePnetCDF(c, fsys, "f.nc", opt.Config, opt.Hints)
		}
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			rep = r
		}
		if collect {
			if s := iostat.Reduce(c, c.Proc().Stats()); s != nil {
				s.TraceDropped = opt.Trace.Dropped()
				sum = s
			}
		}
		if !hdf5 && opt.Spans != nil {
			merged, dropped := span.Gather(c, c.Proc().Spans())
			if c.Rank() == 0 {
				opt.Spans.Replace(merged, dropped)
			}
		}
		return nil
	})
	if err == nil && !hdf5 && opt.DumpFile != "" {
		if cfg.Discard {
			return rep, sum, fmt.Errorf("DumpFile %q needs the file data, but Discard is set", opt.DumpFile)
		}
		err = dumpImage(fsys, "f.nc", opt.DumpFile)
	}
	return rep, sum, err
}

// dumpImage copies the raw bytes of a simulated file to a host path.
func dumpImage(fsys *pfs.FS, name, dst string) error {
	pf, _, err := fsys.Open(name, 0)
	if err != nil {
		return fmt.Errorf("dump %s: %w", name, err)
	}
	img := make([]byte, pf.Size())
	if _, err := pf.ReadAt(0, img, 0); err != nil {
		return fmt.Errorf("dump %s: %w", name, err)
	}
	return os.WriteFile(dst, img, 0o644)
}
