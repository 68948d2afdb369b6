package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand/v2"

	"pnetcdf/internal/bench"
	"pnetcdf/internal/core"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/pfs"
)

// The Figure 6 drivers: one float32 array tt(Z,Y,X) written by every rank's
// block of a partition. The X partition with a small collective buffer is the
// forced multi-round regime and reads the array back; the Z partition is the
// one-extent-per-rank regime and only writes.

const fig6Path = "fig6.nc"

// fig6Spec is one Figure 6 workload shape.
type fig6Spec struct {
	dims     [3]int64
	part     bench.Partition
	hints    *mpi.Info // nil = the library's defaults
	readBack bool      // Sync, then read every rank's block back
}

func fig6X(dims [3]int64) fig6Spec {
	// 64 KiB per aggregator per round over 2 aggregators forces many rounds;
	// cb_pipeline stays at the library's default.
	hints := mpi.NewInfo().Set("cb_buffer_size", "65536").Set("cb_nodes", "2")
	return fig6Spec{dims: dims, part: bench.PartX, hints: hints, readBack: true}
}

func fig6Z(dims [3]int64) fig6Spec {
	return fig6Spec{dims: dims, part: bench.PartZ}
}

var fig6DimNames = [3]string{"Z", "Y", "X"}

type fig6Driver struct {
	spec   fig6Spec
	n      int
	seed   uint64
	seeded bool
	mach   bench.MachineSpec
	fsys   *pfs.FS
	guard  sizeGuard

	start, count [][]int64   // per rank: its block of the partition
	wbuf, rbuf   [][]float32 // per rank: the block to write, and to read into
	spots        [][2]int    // (rank, cell) of rbuf poisoned before the operation
}

// newFig6 builds the fixture. With seeded false the blocks stay zero: the
// sim-only scale run moves the same bytes and nobody checks them.
func newFig6(spec fig6Spec, n int, seed uint64, seeded bool) (*fig6Driver, error) {
	f := &fig6Driver{spec: spec, n: n, seed: seed, seeded: seeded, mach: bench.SDSCBlueHorizon()}
	for r := 0; r < n; r++ {
		s, k := bench.Decompose(spec.part, spec.dims, n, r)
		f.start, f.count = append(f.start, s[:]), append(f.count, k[:])
		buf := make([]float32, k[0]*k[1]*k[2])
		if seeded {
			i := 0
			for z := s[0]; z < s[0]+k[0]; z++ {
				for y := s[1]; y < s[1]+k[1]; y++ {
					for x := s[2]; x < s[2]+k[2]; x++ {
						buf[i] = f.value(z, y, x)
						i++
					}
				}
			}
		}
		f.wbuf = append(f.wbuf, buf)
		if spec.readBack {
			f.rbuf = append(f.rbuf, make([]float32, len(buf)))
		}
	}
	return f, nil
}

func (f *fig6Driver) value(z, y, x int64) float32 {
	return float32(seededValue(f.seed, uint64((z*f.spec.dims[1]+y)*f.spec.dims[2]+x)))
}

func (f *fig6Driver) ranks() int         { return f.n }
func (f *fig6Driver) net() mpi.NetConfig { return f.mach.Net }

func (f *fig6Driver) begin(rng *rand.Rand) {
	f.fsys = f.mach.NewFS()
	f.spots = f.spots[:0]
	for i := 0; f.spec.readBack && f.seeded && i < spotChecks; i++ {
		r := rng.IntN(f.n)
		j := rng.IntN(len(f.rbuf[r]))
		f.spots = append(f.spots, [2]int{r, j})
		f.rbuf[r][j] = guardPoison
	}
}

func (f *fig6Driver) arrayBytes() int64 {
	return 4 * f.spec.dims[0] * f.spec.dims[1] * f.spec.dims[2]
}

// payload counts the array once per direction.
func (f *fig6Driver) payload() int64 {
	if f.spec.readBack {
		return 2 * f.arrayBytes()
	}
	return f.arrayBytes()
}

func (f *fig6Driver) fixtureBytes() int64 { return f.payload() }

// define declares tt(Z,Y,X) and returns its ID, for either library.
func (f *fig6Driver) define(d definer) (int, error) {
	var dimids [3]int
	for i, name := range fig6DimNames {
		var err error
		if dimids[i], err = d.DefDim(name, f.spec.dims[i]); err != nil {
			return -1, err
		}
	}
	return d.DefVar("tt", nctype.Float, dimids[:])
}

func (f *fig6Driver) rank(c *mpi.Comm, rs *rankSpans) error {
	r := c.Rank()
	var d *core.Dataset
	err := rs.do(spanOpen, func() (err error) {
		d, err = core.Create(c, f.fsys, fig6Path, nctype.Clobber, f.spec.hints)
		return err
	})
	if err != nil {
		return err
	}
	var v int
	if err := rs.do(spanDefine, func() (err error) { v, err = f.define(d); return err }); err != nil {
		return err
	}
	if err := rs.do(spanEndDef, d.EndDef); err != nil {
		return err
	}
	err = rs.do(spanPut, func() error { return d.PutVaraAll(v, f.start[r], f.count[r], f.wbuf[r]) })
	if err != nil {
		return err
	}
	if err := rs.do(spanSync, d.Sync); err != nil {
		return err
	}
	if f.spec.readBack {
		err = rs.do(spanGet, func() error { return d.GetVaraAll(v, f.start[r], f.count[r], f.rbuf[r]) })
		if err != nil {
			return err
		}
	}
	return rs.do(spanClose, d.Close)
}

func (f *fig6Driver) check(rng *rand.Rand) error {
	d, size, err := openSerial(f.fsys, fig6Path)
	if err != nil {
		return err
	}
	if err := f.guard.check(size); err != nil {
		return err
	}
	v := d.VarID("tt")
	if v < 0 {
		return fmt.Errorf("file has no variable tt")
	}
	var got [1]float32
	for i := 0; i < spotChecks; i++ {
		z, y, x := rng.Int64N(f.spec.dims[0]), rng.Int64N(f.spec.dims[1]), rng.Int64N(f.spec.dims[2])
		if err := d.GetVar1(v, []int64{z, y, x}, got[:]); err != nil {
			return err
		}
		if want := f.value(z, y, x); got[0] != want {
			return fmt.Errorf("tt[%d,%d,%d] = %v, want %v", z, y, x, got[0], want)
		}
	}
	for _, s := range f.spots {
		if r, j := s[0], s[1]; f.rbuf[r][j] != f.wbuf[r][j] {
			return fmt.Errorf("rank %d read back cell %d = %v, wrote %v", r, j, f.rbuf[r][j], f.wbuf[r][j])
		}
	}
	return nil
}

func (f *fig6Driver) digest() ([sha256.Size]byte, error) { return fileDigest(f.fsys, fig6Path) }

func (f *fig6Driver) verify() error {
	d, _, err := openSerial(f.fsys, fig6Path)
	if err != nil {
		return err
	}
	dims := f.spec.dims
	got := make([]float32, dims[0]*dims[1]*dims[2])
	if err := d.GetVar(d.VarID("tt"), got); err != nil {
		return err
	}
	i := 0
	for z := int64(0); z < dims[0]; z++ {
		for y := int64(0); y < dims[1]; y++ {
			for x := int64(0); x < dims[2]; x++ {
				if want := f.value(z, y, x); got[i] != want {
					return fmt.Errorf("tt[%d,%d,%d] = %v, want %v", z, y, x, got[i], want)
				}
				i++
			}
		}
	}
	for r := range f.rbuf {
		for j, x := range f.rbuf[r] {
			if x != f.wbuf[r][j] {
				return fmt.Errorf("rank %d read back cell %d = %v, wrote %v", r, j, x, f.wbuf[r][j])
			}
		}
	}
	return nil
}

func (f *fig6Driver) shapes() (shapes, error) {
	d, _, err := openSerial(f.fsys, fig6Path)
	if err != nil {
		return shapes{}, err
	}
	s := shapes{hdr: d.Header(), fsCfg: f.mach.FS, hints: f.spec.hints}
	ext := int64(len(f.wbuf[0])) * 4
	s.encFlat = &codecShape{typ: nctype.Float, data: f.wbuf[0], bytes: ext}
	if f.spec.readBack {
		s.dec = &codecShape{typ: nctype.Float, data: f.rbuf[0], bytes: ext}
	}
	for r := 0; r < f.n; r++ {
		s.writes = append(s.writes, []dataAccess{{varid: 0, start: f.start[r], count: f.count[r], data: f.wbuf[r]}})
		if f.spec.readBack {
			s.reads = append(s.reads, []dataAccess{{varid: 0, start: f.start[r], count: f.count[r], data: f.rbuf[r]}})
		}
	}
	return s, nil
}
