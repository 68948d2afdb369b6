// Climate: record variables in a parallel time-stepping code — the netCDF
// motivating domain (the paper's introduction cites atmospheric time series
// and regularly spaced grids).
//
// Eight processes run a toy atmospheric model over a lat/lon grid. Every
// "simulation day" each process appends its patch of three record variables
// (temperature, pressure, humidity) along the UNLIMITED dimension. The
// appends use the nonblocking batched API (IPutVara + WaitAll), so one
// day's three variables reach the file system as a single collective I/O —
// the record-variable optimization of the paper's §4.2.2. Afterwards the
// run is reopened and a point's full time series is extracted with one
// strided read.
//
// Run with: go run ./examples/climate
package main

import (
	"fmt"
	"log"
	"math"

	"pnetcdf/internal/core"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/pfs"
)

const (
	nprocs = 8
	nlat   = 32
	nlon   = 64
	days   = 5
)

func model(day, lat, lon int, field int) float64 {
	s := math.Sin(float64(lat)/8) * math.Cos(float64(lon)/16)
	return float64(field*100) + float64(day) + 10*s
}

func main() {
	fsys := pfs.New(pfs.BlueHorizon())
	err := mpi.Run(nprocs, mpi.DefaultNet(), func(comm *mpi.Comm) error {
		d, err := core.Create(comm, fsys, "climate.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		tdim, _ := d.DefDim("time", 0) // UNLIMITED
		latdim, _ := d.DefDim("lat", nlat)
		londim, _ := d.DefDim("lon", nlon)
		fields := []string{"temperature", "pressure", "humidity"}
		units := []string{"K", "hPa", "%"}
		varids := make([]int, len(fields))
		for i, f := range fields {
			v, err := d.DefVar(f, nctype.Float, []int{tdim, latdim, londim})
			if err != nil {
				return err
			}
			if err := d.PutAttr(v, "units", nctype.Char, units[i]); err != nil {
				return err
			}
			varids[i] = v
		}
		if err := d.PutAttr(core.GlobalID, "Conventions", nctype.Char, "CF-ish"); err != nil {
			return err
		}
		if err := d.EndDef(); err != nil {
			return err
		}

		// Each process owns a latitude band.
		band := nlat / nprocs
		lat0 := comm.Rank() * band
		for day := 0; day < days; day++ {
			for fi, v := range varids {
				patch := make([]float32, band*nlon)
				for la := 0; la < band; la++ {
					for lo := 0; lo < nlon; lo++ {
						patch[la*nlon+lo] = float32(model(day, lat0+la, lo, fi))
					}
				}
				// Queue: one record of one variable.
				if _, err := d.IPutVara(v,
					[]int64{int64(day), int64(lat0), 0},
					[]int64{1, int64(band), int64(nlon)}, patch); err != nil {
					return err
				}
			}
			// One fused collective write per simulated day.
			if err := d.WaitAll(); err != nil {
				return err
			}
		}
		if d.NumRecs() != days {
			return fmt.Errorf("expected %d records, have %d", days, d.NumRecs())
		}
		if err := d.Close(); err != nil {
			return err
		}

		// Post-processing: extract the full time series at one grid point
		// with a single strided-free record read (the record dimension
		// varies fastest in the request).
		r, err := core.Open(comm, fsys, "climate.nc", nctype.NoWrite, nil)
		if err != nil {
			return err
		}
		series := make([]float32, days)
		if err := r.GetVaraAll(r.VarID("temperature"),
			[]int64{0, int64(lat0), 0}, []int64{days, 1, 1}, series); err != nil {
			return err
		}
		for day := range series {
			want := float32(model(day, lat0, 0, 0))
			if series[day] != want {
				return fmt.Errorf("rank %d: day %d = %v, want %v", comm.Rank(), day, series[day], want)
			}
		}
		if comm.Rank() == 0 {
			fmt.Printf("wrote %d days x %d fields over %d ranks; time series at (lat=%d,lon=0): %v\n",
				days, len(fields), nprocs, lat0, series)
		}
		return r.Close()
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("climate example OK")
}
