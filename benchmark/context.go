package main

import (
	"pnetcdf/internal/flash"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
	"pnetcdf/internal/pfs"
)

// Context for sim_MBps: the comparisons the paper publishes. Each runs once,
// untimed, in virtual time only.

// serialMBps is Figure 6's baseline: one process moves the whole array
// through the serial netCDF library on the same simulated machine.
func (f *fig6Driver) serialMBps() (float64, error) {
	pf, t := f.mach.NewFS().Create("serial.nc", 0)
	sf := pfs.NewSerialFile(pf, t)
	d, err := netcdf.Create(sf, nctype.Clobber)
	if err != nil {
		return 0, err
	}
	v, err := f.define(d)
	if err != nil {
		return 0, err
	}
	if err := d.EndDef(); err != nil {
		return 0, err
	}
	buf := make([]float32, f.arrayBytes()/4)
	if err := d.PutVar(v, buf); err != nil {
		return 0, err
	}
	if err := d.Sync(); err != nil {
		return 0, err
	}
	if f.spec.readBack {
		if err := d.GetVar(v, buf); err != nil {
			return 0, err
		}
	}
	if err := d.Close(); err != nil {
		return 0, err
	}
	return simMBps(f.payload(), sf.Clock()), nil
}

// h5MBps is Figure 7's comparator: the same checkpoint (and its read-back)
// through the HDF5-style library.
func (f *flashDriver) h5MBps() (float64, error) {
	const path = "flash_chk.h5"
	fsys := f.mach.NewFS()
	var rep flash.Report
	once := func(io func(c *mpi.Comm) (flash.Report, error)) error {
		return mpi.Run(f.n, f.mach.Net, func(c *mpi.Comm) error {
			r, err := io(c)
			if c.Rank() == 0 {
				rep = r
			}
			return err
		})
	}
	err := once(func(c *mpi.Comm) (flash.Report, error) {
		return flash.WriteCheckpointH5(c, fsys, path, f.cfg, nil)
	})
	if err == nil && f.read {
		fsys.ResetClock()
		err = once(func(c *mpi.Comm) (flash.Report, error) {
			return flash.ReadCheckpointH5(c, fsys, path, f.cfg, nil)
		})
	}
	return rep.BandwidthMBps(), err
}

// scaleMBps runs the workload once at scaleRanks on a sim-only fixture.
func scaleMBps(w workload, sz sizes) (float64, error) {
	d, err := w.scale(sz, scaleRanks)
	if err != nil {
		return 0, err
	}
	s, err := newRunner(d, 0).exec(nil, nil)
	return simMBps(d.payload(), s.makespan), err
}
