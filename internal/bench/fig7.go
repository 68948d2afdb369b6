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

// figure7 holds one chart of the paper's Figure 7: aggregate bandwidth of
// one FLASH output file, PnetCDF vs the HDF5-style library, across process
// counts.
type figure7 struct {
	Machine string
	File    FlashFile
	Block   string // "8x8x8" or "16x16x16"
	Procs   []int
	PnetCDF []float64 // MB/s
	HDF5    []float64 // MB/s
	// Stats[i] is the iostat summary of the PnetCDF run with Procs[i]
	// processes (nil unless Fig7Options.Stats).
	Stats []*iostat.Summary
	// Spans are the last PnetCDF run's spans merged across its ranks, and
	// Dropped the count its recorders dropped (nil and 0 unless
	// Fig7Options.Spans); after a failure, the failed run's.
	Spans   []span.Span
	Dropped int64
	// Failed is the run that ended the sweep, nil when none did.
	Failed *failedRun
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
	// summaries land in figure7.Stats.
	Stats bool
	// Spans enables per-rank span recording for the PnetCDF runs; the last
	// run's merged spans land in figure7.Spans.
	Spans bool
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

// RunFigure7 measures one chart. A run that fails ends the sweep: the chart
// returned beside its error holds the process counts measured before it,
// with the failed run in Failed and, when it was a PnetCDF run, its spans
// in Spans.
func RunFigure7(opt Fig7Options) (*figure7, error) {
	block := fmt.Sprintf("%dx%dx%d", opt.Config.NXB, opt.Config.NYB, opt.Config.NZB)
	if opt.Read {
		block += ", read-back"
	}
	if opt.Config.Queued {
		block += ", queued"
	}
	fig := &figure7{
		Machine: opt.Machine.Name,
		File:    opt.File,
		Block:   block,
		Procs:   opt.Procs,
	}
	for i, p := range opt.Procs {
		nc, pr, err := runFlashOnce(opt, p, false)
		fig.Spans, fig.Dropped = pr.spans()
		if err != nil {
			fig.Procs = fig.Procs[:i]
			fig.Failed = &failedRun{Procs: p, Stats: pr.summary()}
			return fig, fmt.Errorf("pnetcdf %d procs: %w", p, err)
		}
		h5, _, err := runFlashOnce(opt, p, true)
		if err != nil {
			fig.Procs = fig.Procs[:i]
			fig.Failed = &failedRun{Procs: p}
			return fig, fmt.Errorf("hdf5 %d procs: %w", p, err)
		}
		fig.PnetCDF = append(fig.PnetCDF, nc.BandwidthMBps())
		fig.HDF5 = append(fig.HDF5, h5.BandwidthMBps())
		fig.Stats = append(fig.Stats, pr.summary())
	}
	return fig, nil
}

// runFlashOnce runs one FLASH output on nprocs ranks; the PnetCDF run
// (hdf5 false) keeps the counters and spans the options enable.
func runFlashOnce(opt Fig7Options, nprocs int, hdf5 bool) (flash.Report, probes, error) {
	if hdf5 {
		// Rank kills target the PnetCDF run; the HDF5 comparison run is
		// not the one under test.
		opt.Fault.KillPoint = ""
	}
	cfg := opt.Machine.FS
	cfg.Discard = opt.Discard
	fsys := pfs.New(cfg)
	if opt.Read {
		// A rank kill targets the measured read-back, not the write that
		// prepares its file: it is armed after that write.
		opt.Fault.install(fsys)
	} else {
		opt.Fault.apply(fsys)
	}
	var rep flash.Report
	pr, err := runProbed(nprocs, opt.Machine.Net, opt.Stats && !hdf5, opt.Spans && !hdf5, func(c *mpi.Comm) error {
		var r flash.Report
		var err error
		switch {
		case opt.Read && hdf5:
			if _, err = flash.WriteCheckpointH5(c, fsys, "f.h5", opt.Config, nil); err != nil {
				return err
			}
			if err = zeroClocks(c, fsys, nil); err != nil {
				return err
			}
			r, err = flash.ReadCheckpointH5(c, fsys, "f.h5", opt.Config, nil)
		case opt.Read:
			if _, err = flash.WriteCheckpointPnetCDF(c, fsys, "f.nc", opt.Config, opt.Hints); err != nil {
				return err
			}
			if c.Rank() == 0 {
				opt.Fault.armKill(fsys)
			}
			if err = zeroClocks(c, fsys, nil); err != nil {
				return err
			}
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
		return nil
	})
	// A run a rank death cut short still dumps its file, for ncvalidate to
	// check.
	if !hdf5 && opt.DumpFile != "" {
		if cfg.Discard {
			return rep, pr, fmt.Errorf("DumpFile %q needs the file data, but Discard is set", opt.DumpFile)
		}
		if derr := dumpImage(fsys, "f.nc", opt.DumpFile); err == nil {
			err = derr
		}
	}
	return rep, pr, err
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
