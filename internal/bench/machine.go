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
// an IBM SP with 12 GPFS I/O nodes, ~1.5 GB/s peak aggregate read bandwidth,
// writes substantially slower than reads (GPFS commit), and a per-client
// link that caps a single process in the low hundreds of MB/s — which is
// what bounds the serial netCDF baseline.
func SDSCBlueHorizon() MachineSpec {
	cfg := pfs.Config{
		NumServers:     12,
		StripeSize:     256 << 10,
		SeekTime:       1.2e-3,
		ReadBW:         75e6,
		WriteBW:        22e6,
		ClientBW:       160e6,
		ClientCache:    64 << 20,
		NetLatency:     60e-6,
		PerReqOverhead: 200e-6,
		PipeChunk:      4 << 20,
		OpenCost:       3e-3,
		SyncCost:       1.5e-3,
	}
	return MachineSpec{Name: "SDSC Blue Horizon (sim)", FS: cfg, Net: mpi.DefaultNet()}
}

// ASCIFrost models the §5.2 FLASH platform: ASCI White Frost, a 68-node
// Power3 system attached to a 2-node GPFS I/O system. The small I/O-server
// pool is why the FLASH curves flatten near ~100 MB/s.
func ASCIFrost() MachineSpec {
	cfg := pfs.Config{
		NumServers:     2,
		StripeSize:     256 << 10,
		SeekTime:       1.0e-3,
		ReadBW:         90e6,
		WriteBW:        60e6,
		ClientBW:       160e6,
		ClientCache:    64 << 20,
		NetLatency:     80e-6,
		PerReqOverhead: 250e-6,
		PipeChunk:      4 << 20,
		OpenCost:       3e-3,
		SyncCost:       1.5e-3,
	}
	return MachineSpec{Name: "ASCI White Frost (sim)", FS: cfg, Net: mpi.DefaultNet()}
}
