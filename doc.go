// Package pnetcdf is a pure-Go reproduction of "Parallel netCDF: A
// High-Performance Scientific I/O Interface" (Li et al., SC 2003).
//
// The system lives in internal packages, bottom-up:
//
//   - internal/nctype, internal/cdf: the netCDF classic file format
//     (CDF-1/2/5) — header codec, layout rules, external data encoding.
//   - internal/mpi: an in-process MPI runtime (goroutine ranks, tag-matched
//     messaging, collectives) with virtual-time accounting.
//   - internal/pfs: a striped parallel file system simulator (GPFS-class)
//     storing real bytes under a virtual-time cost model.
//   - internal/mpitype, internal/mpiio: MPI datatypes and MPI-IO with data
//     sieving and two-phase collective I/O (ROMIO-style).
//   - internal/netcdf: the serial netCDF library (the paper's baseline).
//   - internal/core: PnetCDF itself — the ncmpi_*-style parallel API.
//   - internal/h5sim: the parallel-HDF5-style comparator library.
//   - internal/flash: the FLASH I/O benchmark kernel.
//   - internal/bench: the harness regenerating the paper's Figures 6 and 7
//     and the design-choice ablations.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-vs-measured results. cmd/pnetcdf-bench and
// cmd/flashio-bench regenerate the figure series and the ablations;
// benchmark/ is the per-PR performance trajectory, and alloc_regress_test.go
// here pins what the hot paths may allocate.
package pnetcdf
