// Quickstart: the paper's Figure 4 usage pattern, end to end.
//
// Four processes collectively create a netCDF dataset, define a 2-D
// variable, write it with a collective put (each process owning a row
// block), close it — then reopen it, inquire about the structure, and read
// it back with a collective strided get. Finally the file is dumped through
// the *serial* library to show the two libraries share one format.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"pnetcdf/internal/core"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
	"pnetcdf/internal/pfs"
)

func main() {
	fsys := pfs.New(pfs.BlueHorizon())
	const nprocs = 4
	const rows, cols = 8, 10

	err := mpi.Run(nprocs, mpi.DefaultNet(), func(comm *mpi.Comm) error {
		// --- WRITE (Figure 4a) ---
		// 1. Collectively create the dataset.
		info := mpi.NewInfo().Set("nc_header_align_size", "512")
		d, err := core.Create(comm, fsys, "quickstart.nc", nctype.Clobber, info)
		if err != nil {
			return err
		}
		// 2. Collectively define dimensions, variables, attributes.
		ydim, _ := d.DefDim("y", rows)
		xdim, _ := d.DefDim("x", cols)
		temp, err := d.DefVar("temperature", nctype.Double, []int{ydim, xdim})
		if err != nil {
			return err
		}
		if err := d.PutAttr(temp, "units", nctype.Char, "celsius"); err != nil {
			return err
		}
		if err := d.PutAttr(core.GlobalID, "source", nctype.Char, "pnetcdf-go quickstart"); err != nil {
			return err
		}
		if err := d.EndDef(); err != nil {
			return err
		}
		// 3. Collective data access: each rank writes rows [2r, 2r+2).
		mine := make([]float64, 2*cols)
		for i := range mine {
			mine[i] = float64(comm.Rank()*100 + i)
		}
		start := []int64{int64(comm.Rank() * 2), 0}
		count := []int64{2, cols}
		if err := d.PutVaraAll(temp, start, count, mine); err != nil {
			return err
		}
		// 4. Collectively close.
		if err := d.Close(); err != nil {
			return err
		}

		// --- READ (Figure 4b) ---
		r, err := core.Open(comm, fsys, "quickstart.nc", nctype.NoWrite, nil)
		if err != nil {
			return err
		}
		// Inquiry is local: no file access, no synchronization.
		name, typ, dims, err := r.InqVar(r.VarID("temperature"))
		if err != nil {
			return err
		}
		if comm.Rank() == 0 {
			fmt.Printf("variable %q: type %v, %d dims, attrs %v\n",
				name, typ, len(dims), mustNames(r))
		}
		// Collective strided read: every other column of this rank's rows.
		got := make([]float64, 2*cols/2)
		if err := r.GetVarsAll(r.VarID("temperature"), start, []int64{2, cols / 2},
			[]int64{1, 2}, got); err != nil {
			return err
		}
		if got[0] != float64(comm.Rank()*100) {
			return fmt.Errorf("rank %d read %v, want %v", comm.Rank(), got[0], comm.Rank()*100)
		}
		fmt.Printf("rank %d: strided read OK, first value %.0f\n", comm.Rank(), got[0])
		return r.Close()
	})
	if err != nil {
		log.Fatal(err)
	}

	// The same file through the serial library: byte-level compatibility.
	pf, _, err := fsys.Open("quickstart.nc", 0)
	if err != nil {
		log.Fatal(err)
	}
	sd, err := netcdf.Open(pfs.NewSerialFile(pf, 0), nctype.NoWrite)
	if err != nil {
		log.Fatal(err)
	}
	corner := make([]float64, 1)
	if err := sd.GetVar1(sd.VarID("temperature"), []int64{rows - 1, cols - 1}, corner); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serial library reads the parallel file: temperature[%d,%d] = %.0f\n",
		rows-1, cols-1, corner[0])
}

func mustNames(d *core.Dataset) []string {
	names, err := d.AttrNames(d.VarID("temperature"))
	if err != nil {
		return nil
	}
	return names
}
