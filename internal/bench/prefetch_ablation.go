package bench

import (
	"fmt"

	"pnetcdf/internal/core"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/nctype"
)

// AblationPrefetch measures the nc_prefetch_vars hint (paper §4.1's
// open-time read optimization): a workload that opens a file and issues
// many small reads of a few variables, with and without the hint.
func AblationPrefetch(m MachineSpec, nprocs, nreads int) (AblationResult, error) {
	// Build the dataset once.
	fsys := m.NewFS()
	err := mpi.Run(1, m.Net, func(c *mpi.Comm) error {
		d, err := core.Create(c, fsys, "pf.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		x, _ := d.DefDim("x", 4096)
		for _, name := range []string{"coords", "mask", "area"} {
			v, err := d.DefVar(name, nctype.Double, []int{x})
			if err != nil {
				return err
			}
			_ = v
		}
		if err := d.EndDef(); err != nil {
			return err
		}
		buf := make([]float64, 4096)
		for _, name := range []string{"coords", "mask", "area"} {
			if err := d.PutVarAll(d.VarID(name), buf); err != nil {
				return err
			}
		}
		return d.Close()
	})
	if err != nil {
		return AblationResult{}, err
	}
	run := func(hint bool) (float64, error) {
		info := mpi.NewInfo()
		if hint {
			info.Set("nc_prefetch_vars", "coords,mask,area")
		}
		var makespan float64
		err := runRanks(m, nprocs, func(c *mpi.Comm) error {
			var d *core.Dataset
			err := timed(c, fsys, &makespan, func() (err error) {
				if d, err = core.Open(c, fsys, "pf.nc", nctype.NoWrite, info); err != nil {
					return err
				}
				if err := d.BeginIndepData(); err != nil {
					return err
				}
				// Many small independent point reads: the pattern the
				// paper's hint discussion targets.
				one := make([]float64, 8)
				for i := 0; i < nreads; i++ {
					v := d.VarID([]string{"coords", "mask", "area"}[i%3])
					off := int64((i * 37) % 4000)
					if err := d.GetVara(v, []int64{off}, []int64{8}, one); err != nil {
						return err
					}
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
	with, err := run(true)
	if err != nil {
		return AblationResult{}, err
	}
	without, err := run(false)
	if err != nil {
		return AblationResult{}, fmt.Errorf("without hint: %w", err)
	}
	return AblationResult{Name: "nc_prefetch_vars hint", Chosen: with, Baseline: without}, nil
}

// AblationVarAlign measures the default layout — variables of four stripes
// or more begun on a stripe — against the classic packed one, which an
// explicit nc_var_align_size=1 still gives. Every variable is eight stripes
// long and written by one collective, the FLASH checkpoint's pattern: packed,
// each collective opens and closes with a partial block and pays the file
// system's read-modify-write for both.
func AblationVarAlign(m MachineSpec, nvars, nprocs int) (AblationResult, error) {
	run := func(packed bool) (float64, error) {
		fsys := m.NewFS()
		share := 2 * m.FS.StripeSize / int64(nprocs) // floats per rank
		info := mpi.NewInfo()
		if packed {
			info.Set("nc_var_align_size", "1")
		}
		var makespan float64
		err := runRanks(m, nprocs, func(c *mpi.Comm) error {
			d, err := core.Create(c, fsys, "va.nc", nctype.Clobber, info)
			if err != nil {
				return err
			}
			x, _ := d.DefDim("x", share*int64(nprocs))
			ids := make([]int, nvars)
			for i := range ids {
				ids[i], _ = d.DefVar(fmt.Sprintf("v%02d", i), nctype.Float, []int{x})
			}
			if err := d.EndDef(); err != nil {
				return err
			}
			buf := make([]float32, share)
			err = timed(c, fsys, &makespan, func() error {
				for _, v := range ids {
					if err := d.PutVaraAll(v, []int64{share * int64(c.Rank())}, []int64{share}, buf); err != nil {
						return err
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
	aligned, err := run(false)
	if err != nil {
		return AblationResult{}, err
	}
	packed, err := run(true)
	if err != nil {
		return AblationResult{}, fmt.Errorf("nc_var_align_size=1: %w", err)
	}
	return AblationResult{Name: "stripe-aligned layout (default)", Chosen: aligned, Baseline: packed}, nil
}
