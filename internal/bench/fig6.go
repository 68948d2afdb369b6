package bench

import (
	"fmt"

	"pnetcdf/internal/core"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
	"pnetcdf/internal/pfs"
	"pnetcdf/internal/span"
)

// Figure6 holds one chart of the paper's Figure 6: read or write bandwidth
// of a 3-D float array tt(Z,Y,X), serial netCDF (single process) against
// PnetCDF over the seven partitions and a range of process counts.
type Figure6 struct {
	Machine string
	Op      string // "read" or "write"
	Dims    [3]int64
	Bytes   int64
	// SerialMBps is the serial netCDF baseline (one process, whole array).
	SerialMBps float64
	// Points[partition][i] is the bandwidth with Procs[i] processes.
	Procs  []int
	Points map[Partition][]float64
	// Stats[partition][i] is the reduced iostat summary of the measured
	// phase (nil unless Fig6Options.Stats).
	Stats map[Partition][]*iostat.Summary
}

// Fig6Options configures a Figure 6 run.
type Fig6Options struct {
	Machine    MachineSpec
	Dims       [3]int64 // Z, Y, X extents of the float32 array
	Procs      []int
	Partitions []Partition
	Read       bool
	// Discard skips data retention in the simulated FS (large arrays).
	Discard bool
	// Stats enables per-rank iostat counters for the measured phase; the
	// reduced summaries land in Figure6.Stats.
	Stats bool
	// Trace, when non-nil, receives I/O events from every parallel run.
	Trace *iostat.Trace
	// Spans, when non-nil, enables per-rank span recording; each parallel
	// run's cross-rank merge replaces the sink's contents, so after the
	// sweep it holds the last run's spans.
	Spans *span.Sink
	// Fault injects deterministic transient faults into the runs.
	Fault FaultOptions
}

// Dims64MB is the 64 MB dataset (256^3 float32).
var Dims64MB = [3]int64{256, 256, 256}

// Dims1GB is the 1 GB dataset (512x512x1024 float32).
var Dims1GB = [3]int64{512, 512, 1024}

const fig6VarName = "tt"

// RunFigure6 measures one chart.
func RunFigure6(opt Fig6Options) (*Figure6, error) {
	if len(opt.Partitions) == 0 {
		opt.Partitions = AllPartitions
	}
	nbytes := 4 * opt.Dims[0] * opt.Dims[1] * opt.Dims[2]
	op := "write"
	if opt.Read {
		op = "read"
	}
	fig := &Figure6{
		Machine: opt.Machine.Name, Op: op, Dims: opt.Dims, Bytes: nbytes,
		Procs: opt.Procs, Points: map[Partition][]float64{},
		Stats: map[Partition][]*iostat.Summary{},
	}
	serial, err := runFig6Serial(opt)
	if err != nil {
		return nil, err
	}
	fig.SerialMBps = serial
	for _, part := range opt.Partitions {
		for _, p := range opt.Procs {
			mbps, sum, err := runFig6Parallel(opt, part, p)
			if err != nil {
				return nil, fmt.Errorf("partition %v procs %d: %w", part, p, err)
			}
			fig.Points[part] = append(fig.Points[part], mbps)
			fig.Stats[part] = append(fig.Stats[part], sum)
		}
	}
	return fig, nil
}

// runFig6Serial measures the single-process serial netCDF baseline.
func runFig6Serial(opt Fig6Options) (float64, error) {
	cfg := opt.Machine.FS
	cfg.Discard = opt.Discard
	fsys := pfs.New(cfg)
	opt.Fault.apply(fsys)
	pf, t := fsys.Create("serial.nc", 0)
	sf := pfs.NewSerialFile(pf, t)
	mode := nctype.Clobber
	if opt.Dims[0]*opt.Dims[1]*opt.Dims[2]*4 > 1<<31-1 {
		mode |= nctype.Bit64Offset
	}
	d, err := netcdf.Create(sf, mode)
	if err != nil {
		return 0, err
	}
	z, _ := d.DefDim("Z", opt.Dims[0])
	y, _ := d.DefDim("Y", opt.Dims[1])
	x, _ := d.DefDim("X", opt.Dims[2])
	v, err := d.DefVar(fig6VarName, nctype.Float, []int{z, y, x})
	if err != nil {
		return 0, err
	}
	if err := d.EndDef(); err != nil {
		return 0, err
	}
	n := opt.Dims[0] * opt.Dims[1] * opt.Dims[2]
	buf := make([]float32, n)
	if opt.Read {
		// Populate untimed, then measure the read.
		if err := d.PutVar(v, buf); err != nil {
			return 0, err
		}
		if err := d.Sync(); err != nil {
			return 0, err
		}
		fsys.ResetClock()
		sf.SetClock(0)
		if err := d.GetVar(v, buf); err != nil {
			return 0, err
		}
		return float64(4*n) / sf.Clock() / 1e6, nil
	}
	fsys.ResetClock()
	sf.SetClock(0)
	if err := d.PutVar(v, buf); err != nil {
		return 0, err
	}
	if err := d.Sync(); err != nil {
		return 0, err
	}
	return float64(4*n) / sf.Clock() / 1e6, nil
}

// runFig6Parallel measures PnetCDF with one partition and process count.
func runFig6Parallel(opt Fig6Options, part Partition, nprocs int) (float64, *iostat.Summary, error) {
	cfg := opt.Machine.FS
	cfg.Discard = opt.Discard
	fsys := pfs.New(cfg)
	opt.Fault.apply(fsys)
	nbytes := 4 * opt.Dims[0] * opt.Dims[1] * opt.Dims[2]
	var makespan float64
	var sum *iostat.Summary
	err := mpi.Run(nprocs, opt.Machine.Net, func(c *mpi.Comm) error {
		if opt.Stats {
			c.Proc().SetStats(iostat.New())
		}
		c.Proc().SetTrace(opt.Trace)
		if opt.Spans != nil {
			proc := c.Proc()
			proc.SetSpans(span.NewRecorder(c.Rank(), proc.Clock))
		}
		mode := nctype.Clobber
		if nbytes > 1<<31-1 {
			mode |= nctype.Bit64Offset
		}
		d, err := core.Create(c, fsys, "par.nc", mode, nil)
		if err != nil {
			return err
		}
		z, _ := d.DefDim("Z", opt.Dims[0])
		y, _ := d.DefDim("Y", opt.Dims[1])
		x, _ := d.DefDim("X", opt.Dims[2])
		v, err := d.DefVar(fig6VarName, nctype.Float, []int{z, y, x})
		if err != nil {
			return err
		}
		if err := d.EndDef(); err != nil {
			return err
		}
		start, count := Decompose(part, opt.Dims, nprocs, c.Rank())
		buf := make([]float32, count[0]*count[1]*count[2])
		s := start[:]
		k := count[:]
		if opt.Read {
			if err := d.PutVaraAll(v, s, k, buf); err != nil {
				return err
			}
			if err := d.Sync(); err != nil {
				return err
			}
		}
		// Measured phase: zero the clocks and counters so setup I/O does
		// not pollute the measurement.
		c.Proc().SetClock(0)
		fsys.ResetClock()
		c.Proc().Stats().Reset()
		c.Proc().Spans().Reset()
		c.Barrier()
		t0 := c.Clock()
		if opt.Read {
			err = d.GetVaraAll(v, s, k, buf)
		} else {
			err = d.PutVaraAll(v, s, k, buf)
		}
		if err != nil {
			return err
		}
		if !opt.Read {
			if err := d.Sync(); err != nil {
				return err
			}
		}
		end := c.AllreduceF64([]float64{c.Clock()}, mpi.OpMax)[0]
		if c.Rank() == 0 {
			makespan = end - t0
		}
		if err := d.Close(); err != nil {
			return err
		}
		if opt.Stats {
			if s := iostat.Reduce(c, c.Proc().Stats()); s != nil {
				s.TraceDropped = opt.Trace.Dropped()
				sum = s
			}
		}
		if opt.Spans != nil {
			merged, dropped := span.Gather(c, c.Proc().Spans())
			if c.Rank() == 0 {
				opt.Spans.Replace(merged, dropped)
			}
		}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	return float64(nbytes) / makespan / 1e6, sum, nil
}
