package bench

import (
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/pfs"
)

// MachineSpec is a simulated platform: file system geometry plus
// interconnect. NewFS builds a fresh file system instance per experiment so
// server queues never leak between runs.
type MachineSpec struct {
	Name string
	FS   pfs.Config
	Net  mpi.NetConfig
}

// NewFS instantiates the machine's file system.
func (m MachineSpec) NewFS() *pfs.FS { return pfs.New(m.FS) }

// SDSCBlueHorizon models the system of the paper's §5.1 scalability study:
// an IBM SP with pfs.BlueHorizon's file system.
func SDSCBlueHorizon() MachineSpec {
	return MachineSpec{Name: "SDSC Blue Horizon (sim)", FS: pfs.BlueHorizon(), Net: mpi.DefaultNet()}
}

// ASCIFrost models the §5.2 FLASH platform: ASCI White Frost, a 68-node
// Power3 system attached to pfs.Frost's 2-node file system.
func ASCIFrost() MachineSpec {
	return MachineSpec{Name: "ASCI White Frost (sim)", FS: pfs.Frost(), Net: mpi.DefaultNet()}
}
