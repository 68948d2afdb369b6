package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand/v2"

	"pnetcdf/internal/cdf"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
	"pnetcdf/internal/pfs"
)

// nRanks is the job size of every workload; scaleRanks is the one untimed
// larger run that gives the scale.* context metrics.
const (
	nRanks     = 8
	scaleRanks = 32
)

// driver is one workload's fixture and operation. The constructor builds
// everything an operation needs — buffers, names, memtypes, hints, the
// pre-written file — so rank holds nothing but calls into core.
type driver interface {
	ranks() int
	net() mpi.NetConfig
	payload() int64      // bytes one operation moves: the numerator of sim_MBps
	fixtureBytes() int64 // bytes of user buffers the fixture holds

	// begin is untimed: a fresh file system or a clock reset. A driver that
	// reads into long-lived buffers also picks its spot cells here and
	// poisons them, so an operation that reads nothing cannot pass on the
	// previous operation's values.
	begin(rng *rand.Rand)
	rank(c *mpi.Comm, rs *rankSpans) error // timed: one rank's share of the operation
	check(rng *rand.Rand) error            // untimed: header, size and spot cells of the output
	digest() ([sha256.Size]byte, error)    // SHA-256 of the operation's output image
	verify() error                         // teardown: every cell against the fixture
	shapes() (shapes, error)               // what the workload sends each lower layer
}

// workload is one pinned entry of the benchmark. Shapes are fixed; the seed
// changes only data values, names and lookup order. build makes the full
// fixture; scale makes a sim-only one for more ranks that shares or skips
// the data, so a 32-rank run costs no more memory than the 8-rank one.
type workload struct {
	name  string
	why   string
	build func(sz sizes, seed uint64) (driver, error)
	scale func(sz sizes, nranks int) (driver, error)
}

// sizes holds every workload's shape. full is what the benchmark measures;
// small keeps the same structure (27 puts, a multi-round regime, a
// one-segment regime) at a size the tier-1 smoke test can afford.
type sizes struct {
	flashBlocks int      // FLASH blocks per rank
	xDims       [3]int64 // fig6_x_multiround tt(Z,Y,X)
	zDims       [3]int64 // fig6_z_contig tt(Z,Y,X)
	metaVars    int      // meta_defs variables
}

var (
	full  = sizes{flashBlocks: 80, xDims: [3]int64{128, 128, 256}, zDims: [3]int64{256, 256, 256}, metaVars: 4096}
	small = sizes{flashBlocks: 2, xDims: [3]int64{16, 16, 256}, zDims: [3]int64{32, 32, 64}, metaVars: 192}
)

var workloads = []workload{
	{
		name: "flash_ckpt_w",
		why:  "Fig. 7 checkpoint write: 27 single-round collectives per rank, so core encode/view/agreement and the mpi exchange carry host cost and ragged-end stripe RMW carries sim time",
		build: func(sz sizes, seed uint64) (driver, error) {
			return newFlash(flashConfig(sz), nRanks, seededFlash(seed), false)
		},
		scale: func(sz sizes, n int) (driver, error) { return newFlashScale(flashConfig(sz), n, false) },
	},
	{
		name: "flash_ckpt_r",
		why:  "read-back of the same checkpoint: the same layers in the other direction (decode, reply exchange, scatter, ReadVec), so a write-path gain that costs reads shows",
		build: func(sz sizes, seed uint64) (driver, error) {
			return newFlash(flashConfig(sz), nRanks, seededFlash(seed), true)
		},
		scale: func(sz sizes, n int) (driver, error) { return newFlashScale(flashConfig(sz), n, true) },
	},
	{
		name: "fig6_x_multiround",
		why:  "Fig. 6 X partition, 128 B segments, cb_buffer_size=64K cb_nodes=2: the only regime where mpiio's round loops, pipeline and async pfs handles run",
		build: func(sz sizes, seed uint64) (driver, error) {
			return newFig6(fig6X(sz.xDims), nRanks, seed, true)
		},
		scale: func(sz sizes, n int) (driver, error) { return newFig6(fig6X(sz.xDims), n, 0, false) },
	},
	{
		name: "fig6_z_contig",
		why:  "Fig. 6 Z partition, one contiguous extent per rank, single round: bypasses flatten/plan/pack/pipeline, so those optimisations predict no change here",
		build: func(sz sizes, seed uint64) (driver, error) {
			return newFig6(fig6Z(sz.zDims), nRanks, seed, true)
		},
		scale: func(sz sizes, n int) (driver, error) { return newFig6(fig6Z(sz.zDims), n, 0, false) },
	},
	{
		name:  "meta_defs",
		why:   "4096 variable definitions and lookups with the data path idle: core define/sync and cdf codec/FindVar do all the work, the define-mode metadata wall",
		build: func(sz sizes, seed uint64) (driver, error) { return newMeta(sz.metaVars, nRanks, seed) },
		scale: func(sz sizes, n int) (driver, error) { return newMeta(sz.metaVars, n, 0) },
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// definer is the define-mode surface the serial and the parallel library
// share, so one function issues a workload's definitions to either.
type definer interface {
	DefDim(name string, size int64) (int, error)
	DefVar(name string, t nctype.Type, dimids []int) (int, error)
	PutAttr(varid int, name string, t nctype.Type, value any) error
}

// shapes is what a workload sends to the layers below core, for the layer
// probes. Absent shapes stay nil and their probe reports 0.
type shapes struct {
	hdr    *cdf.Header // the workload's header, as a reader decodes it
	fsCfg  pfs.Config
	hints  *mpi.Info
	writes [][]dataAccess // [rank]: the data accesses of one operation, in issue order
	reads  [][]dataAccess
	prefs  *pfs.FS // the file system and path of the file a read-only workload
	path   string  // reads; nil and empty when the workload writes its own

	encSegs, encFlat, dec *codecShape // rank 0's largest encode and decode
	memtype               *subarray   // the flexible API's memory type
}

// dataAccess is one put or get as core sees it.
type dataAccess struct {
	varid        int
	start, count []int64
	data         any               // the user buffer
	memsegs      []mpitype.Segment // nil = contiguous
}

// codecShape is one call into the cdf external-representation codec.
type codecShape struct {
	typ     nctype.Type
	data    any
	memsegs []mpitype.Segment // nil = contiguous
	bytes   int64             // external bytes the call produces or consumes
}

// subarray is the argument list of one mpitype.Subarray call.
type subarray struct{ sizes, subsizes, starts []int64 }

// mix64 is the splitmix64 finalizer: a cheap, well-spread hash.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// seededValue is the synthetic field: a function of the seed and a cell key,
// so the oracle can verify any cell without reference data. Values are 24-bit
// integers over 64, exact in float32 and float64 alike.
func seededValue(seed, key uint64) float64 {
	return float64(int64(mix64(seed^mix64(key))>>40)-1<<23) / 64
}

// spotChecks is how many seeded cells the per-operation oracle reads back.
const spotChecks = 64

// openSerial opens a file of the simulated file system through the serial
// netCDF library — the oracle every parallel output is held against. Open
// decodes and validates the header (cdf.Decode, Header.Validate).
func openSerial(fsys *pfs.FS, path string) (*netcdf.Dataset, int64, error) {
	pf, _, err := fsys.Open(path, 0)
	if err != nil {
		return nil, 0, err
	}
	d, err := netcdf.Open(pfs.NewSerialFile(pf, 0), nctype.NoWrite)
	if err != nil {
		return nil, 0, fmt.Errorf("serial open of %s: %w", path, err)
	}
	size := pf.Size()
	if want := d.Header().FileSize(); size < want {
		return nil, 0, fmt.Errorf("%s is %d bytes, its header declares %d", path, size, want)
	}
	return d, size, nil
}

// fileDigest hashes the raw image of a simulated file.
func fileDigest(fsys *pfs.FS, path string) ([sha256.Size]byte, error) {
	pf, _, err := fsys.Open(path, 0)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	img := make([]byte, pf.Size())
	if _, err := pf.ReadAt(0, img, 0); err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(img), nil
}

// sizeGuard holds every operation's file to the size of the first.
type sizeGuard struct{ want int64 }

func (g *sizeGuard) check(size int64) error {
	if g.want == 0 {
		g.want = size
	}
	if size != g.want {
		return fmt.Errorf("file size %d, first operation wrote %d", size, g.want)
	}
	return nil
}
