package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"

	"pnetcdf/internal/bench"
	"pnetcdf/internal/core"
	"pnetcdf/internal/flash"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/pfs"
)

// The FLASH I/O drivers (paper Figure 7): the checkpoint write and its
// read-back, issued against core's public API with every buffer, name,
// start/count vector and the guard-stripping memory type built beforehand.
// TestFlashDriverMatchesReferenceWriter proves the write issues the same
// logical operations as flash.WriteCheckpointPnetCDF.

const (
	flashPath   = "flash_chk.nc"
	guardPoison = -9.99e33 // held in guard cells; must never reach a file
)

func flashConfig(sz sizes) flash.Config {
	cfg := flash.Default8()
	cfg.BlocksPerProc = sz.flashBlocks
	return cfg
}

// flashData supplies the unknowns: fill builds one variable's guarded blocks
// for one rank, value is the field the oracle expects at an interior cell.
type flashData struct {
	fill  func(cfg flash.Config, varIdx, firstBlock, nblocks int) []float64
	value func(varIdx, globalBlock, z, y, x int) float64
}

// seededFlash is the benchmark's field; the identity test substitutes the
// reference writer's (Config.FillUnknown, flash.CellValue).
func seededFlash(seed uint64) flashData {
	value := func(v, gb, z, y, x int) float64 {
		return seededValue(seed, uint64(v)<<48|uint64(gb)<<24|uint64(z)<<16|uint64(y)<<8|uint64(x))
	}
	fill := func(cfg flash.Config, v, first, nblocks int) []float64 {
		g := cfg.NGuard
		gz, gy, gx := cfg.NZB+2*g, cfg.NYB+2*g, cfg.NXB+2*g
		buf := make([]float64, nblocks*gz*gy*gx)
		for i := range buf {
			buf[i] = guardPoison
		}
		for b := 0; b < nblocks; b++ {
			for z := 0; z < cfg.NZB; z++ {
				for y := 0; y < cfg.NYB; y++ {
					row := ((b*gz+z+g)*gy+y+g)*gx + g
					for x := 0; x < cfg.NXB; x++ {
						buf[row+x] = value(v, first+b, z, y, x)
					}
				}
			}
		}
		return buf
	}
	return flashData{fill: fill, value: value}
}

type dimDef struct {
	name string
	len  int64
}

type varDef struct {
	name   string
	typ    nctype.Type
	dimids []int
}

// flashDriver is the checkpoint fixture. Per-rank slices are indexed by rank;
// unk and rbuf are indexed modulo their length so the sim-only scale run can
// share one set of buffers among all ranks.
type flashDriver struct {
	cfg   flash.Config
	n     int
	mach  bench.MachineSpec
	data  flashData
	read  bool
	fsys  *pfs.FS
	guard sizeGuard
	// checked is false for the sim-only fixture, whose buffers are shared.
	checked bool

	dims    []dimDef
	vars    []varDef // 3 tree variables, then the unknowns
	names   []string // the unknowns' names, for the reader's lookups
	memtype mpitype.Datatype
	memsegs []mpitype.Segment
	memsub  subarray

	// puts and gets are every rank's data accesses in issue order: 3 tree
	// variables and the unknowns to write, the unknowns to read. The user
	// buffers are boxed here, once, not at every call.
	puts, gets [][]dataAccess
	lref, node [][]int32     // [rank] tree metadata, for the oracle
	unk        [][][]float64 // [rank][var] guarded blocks to write
	rbuf       [][][]float64 // [rank][var] guarded blocks to read into
	varids     [][]int       // [rank] scratch for the reader's lookups
	spots      []flashSpot   // cells of rbuf poisoned before the operation
}

func newFlash(cfg flash.Config, n int, data flashData, read bool) (*flashDriver, error) {
	return buildFlash(cfg, n, data, read, n, cfg.NVar)
}

// newFlashScale is the sim-only fixture: every rank writes rank 0's buffers
// and reads all variables into one buffer of its own, as the reference reader
// does, so memory does not grow with the rank count. Its values are not
// checked.
func newFlashScale(cfg flash.Config, n int, read bool) (*flashDriver, error) {
	return buildFlash(cfg, n, seededFlash(0), read, 1, 1)
}

// buildFlash builds the fixture with wranks distinct sets of write buffers
// and rvars distinct read buffers per rank.
func buildFlash(cfg flash.Config, n int, data flashData, read bool, wranks, rvars int) (*flashDriver, error) {
	g, bpp := cfg.NGuard, cfg.BlocksPerProc
	gz, gy, gx := int64(cfg.NZB+2*g), int64(cfg.NYB+2*g), int64(cfg.NXB+2*g)
	f := &flashDriver{
		cfg: cfg, n: n, mach: bench.ASCIFrost(), data: data, read: read, checked: wranks == n,
		dims: []dimDef{
			{"tot_blocks", int64(n * bpp)}, {"nzb", int64(cfg.NZB)}, {"nyb", int64(cfg.NYB)},
			{"nxb", int64(cfg.NXB)}, {"ndim", 3},
		},
		vars: []varDef{
			{"lrefine", nctype.Int, []int{0}}, {"nodetype", nctype.Int, []int{0}},
			{"coordinates", nctype.Double, []int{0, 4}},
		},
		names: flash.UnknownNames(cfg.NVar),
	}
	for _, name := range f.names {
		f.vars = append(f.vars, varDef{name, nctype.Double, []int{0, 1, 2, 3}})
	}
	fcount := []int64{int64(bpp), int64(cfg.NZB), int64(cfg.NYB), int64(cfg.NXB)}
	f.memsub = subarray{
		sizes:    []int64{int64(bpp), gz, gy, gx},
		subsizes: fcount,
		starts:   []int64{0, int64(g), int64(g), int64(g)},
	}
	var err error
	if f.memtype, err = mpitype.Subarray(f.memsub.sizes, f.memsub.subsizes, f.memsub.starts, 1); err != nil {
		return nil, err
	}
	f.memsegs = f.memtype.Segments()
	for r := 0; r < wranks; r++ {
		unk := make([][]float64, cfg.NVar)
		for v := range unk {
			unk[v] = data.fill(cfg, v, r*bpp, bpp)
		}
		f.unk = append(f.unk, unk)
	}
	// unknowns lists one rank's accesses to the unknowns over bufs, indexed
	// modulo their number.
	unknowns := func(r int, bufs [][]float64) []dataAccess {
		var as []dataAccess
		for v := 0; v < cfg.NVar; v++ {
			as = append(as, dataAccess{varid: 3 + v, start: []int64{int64(r * bpp), 0, 0, 0}, count: fcount,
				data: bufs[v%len(bufs)], memsegs: f.memsegs})
		}
		return as
	}
	for r := 0; r < n; r++ {
		first := r * bpp
		// The AMR tree metadata, as the reference writer generates it.
		lref, node, coords := make([]int32, bpp), make([]int32, bpp), make([]float64, 3*bpp)
		for b := 0; b < bpp; b++ {
			lref[b], node[b] = int32(1+(first+b)%4), 1
			for d := 0; d < 3; d++ {
				coords[3*b+d] = float64(first+b) + float64(d)*0.1
			}
		}
		f.lref, f.node = append(f.lref, lref), append(f.node, node)
		bstart, bcount := []int64{int64(first)}, []int64{int64(bpp)}
		f.puts = append(f.puts, append([]dataAccess{
			{varid: 0, start: bstart, count: bcount, data: lref},
			{varid: 1, start: bstart, count: bcount, data: node},
			{varid: 2, start: []int64{int64(first), 0}, count: []int64{int64(bpp), 3}, data: coords},
		}, unknowns(r, f.unk[r%wranks])...))
		f.varids = append(f.varids, make([]int, cfg.NVar))
	}
	if !read {
		return f, nil
	}
	// Pre-populate: write the checkpoint once, then swap the write buffers
	// for the guarded buffers the timed reads scatter into.
	f.read = false
	f.begin(nil)
	err = mpi.Run(n, f.mach.Net, func(c *mpi.Comm) error { return f.rank(c, nil) })
	f.read, f.unk, f.puts = true, nil, nil
	if err != nil {
		return nil, fmt.Errorf("pre-writing the checkpoint: %w", err)
	}
	for r := 0; r < n; r++ {
		bufs := make([][]float64, rvars)
		for v := range bufs {
			bufs[v] = make([]float64, int64(bpp)*gz*gy*gx)
			for i := range bufs[v] {
				bufs[v][i] = guardPoison
			}
		}
		f.rbuf = append(f.rbuf, bufs)
		f.gets = append(f.gets, unknowns(r, bufs))
	}
	return f, nil
}

func (f *flashDriver) ranks() int         { return f.n }
func (f *flashDriver) net() mpi.NetConfig { return f.mach.Net }

func (f *flashDriver) payload() int64 {
	return int64(f.n*f.cfg.NVar) * f.memtype.Size() * 8
}

func (f *flashDriver) fixtureBytes() int64 {
	var n int64
	for _, set := range [][][][]float64{f.unk, f.rbuf} {
		for _, bufs := range set {
			for _, b := range bufs {
				n += int64(len(b)) * 8
			}
		}
	}
	return n
}

// begin gives a write a fresh file system; a read keeps the pre-written one
// and only zeroes the server queues.
func (f *flashDriver) begin(rng *rand.Rand) {
	if !f.read {
		f.fsys = f.mach.NewFS()
		return
	}
	f.fsys.ResetClock()
	f.spots = f.spots[:0]
	for i := 0; f.checked && i < spotChecks; i++ {
		s := f.randomSpot(rng)
		f.spots = append(f.spots, s)
		*f.readCell(s) = guardPoison
	}
}

// flashSpot names one interior cell of one unknown.
type flashSpot struct{ v, gb, z, y, x int }

func (f *flashDriver) randomSpot(rng *rand.Rand) flashSpot {
	cfg := f.cfg
	return flashSpot{rng.IntN(cfg.NVar), rng.IntN(f.n * cfg.BlocksPerProc), rng.IntN(cfg.NZB), rng.IntN(cfg.NYB), rng.IntN(cfg.NXB)}
}

// readCell locates a spot in the read buffers.
func (f *flashDriver) readCell(s flashSpot) *float64 {
	bpp := f.cfg.BlocksPerProc
	return &f.rbuf[s.gb/bpp][s.v][f.interior(s.gb%bpp, s.z, s.y, s.x)]
}

func (f *flashDriver) rank(c *mpi.Comm, rs *rankSpans) error {
	if f.read {
		return f.readRank(c, rs)
	}
	var d *core.Dataset
	err := rs.do(spanOpen, func() (err error) {
		d, err = core.Create(c, f.fsys, flashPath, nctype.Bit64Offset, nil)
		return err
	})
	if err != nil {
		return err
	}
	// IDs are handed out in definition order, so the prebuilt dimids and
	// varids are the positions in f.dims and f.vars.
	err = rs.do(spanDefine, func() error {
		for _, dim := range f.dims {
			if _, err := d.DefDim(dim.name, dim.len); err != nil {
				return err
			}
		}
		for _, v := range f.vars {
			if _, err := d.DefVar(v.name, v.typ, v.dimids); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := rs.do(spanEndDef, d.EndDef); err != nil {
		return err
	}
	for _, a := range f.puts[c.Rank()] {
		err := rs.do(spanPut, func() error {
			if a.memsegs == nil {
				return d.PutVaraAll(a.varid, a.start, a.count, a.data)
			}
			return d.PutVaraTypeAll(a.varid, a.start, a.count, a.data, f.memtype)
		})
		if err != nil {
			return err
		}
	}
	return rs.do(spanClose, d.Close)
}

func (f *flashDriver) readRank(c *mpi.Comm, rs *rankSpans) error {
	var d *core.Dataset
	err := rs.do(spanOpen, func() (err error) {
		d, err = core.Open(c, f.fsys, flashPath, nctype.NoWrite, nil)
		return err
	})
	if err != nil {
		return err
	}
	ids := f.varids[c.Rank()]
	err = rs.do(spanInq, func() error {
		for i, name := range f.names {
			if ids[i] = d.VarID(name); ids[i] < 0 {
				return fmt.Errorf("checkpoint is missing %s", name)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, a := range f.gets[c.Rank()] {
		err := rs.do(spanGet, func() error {
			return d.GetVaraTypeAll(ids[i], a.start, a.count, a.data, f.memtype)
		})
		if err != nil {
			return err
		}
	}
	return rs.do(spanClose, d.Close)
}

// interior returns the index of interior cell (b, z, y, x) in a guarded
// buffer.
func (f *flashDriver) interior(b, z, y, x int) int {
	g := f.cfg.NGuard
	gz, gy, gx := f.cfg.NZB+2*g, f.cfg.NYB+2*g, f.cfg.NXB+2*g
	return ((b*gz+z+g)*gy+y+g)*gx + x + g
}

func (f *flashDriver) check(rng *rand.Rand) error {
	if f.read {
		for _, s := range f.spots {
			if got, want := *f.readCell(s), f.data.value(s.v, s.gb, s.z, s.y, s.x); got != want {
				return fmt.Errorf("read %s%v = %v, want %v", f.names[s.v], s, got, want)
			}
		}
		return nil
	}
	d, size, err := openSerial(f.fsys, flashPath)
	if err != nil {
		return err
	}
	if err := f.guard.check(size); err != nil {
		return err
	}
	if d.NumVars() != len(f.vars) {
		return fmt.Errorf("file holds %d variables, want %d", d.NumVars(), len(f.vars))
	}
	var got [1]float64
	for i := 0; i < spotChecks; i++ {
		s := f.randomSpot(rng)
		if err := d.GetVar1(3+s.v, []int64{int64(s.gb), int64(s.z), int64(s.y), int64(s.x)}, got[:]); err != nil {
			return err
		}
		if want := f.data.value(s.v, s.gb, s.z, s.y, s.x); got[0] != want {
			return fmt.Errorf("%s%v = %v, want %v", f.names[s.v], s, got[0], want)
		}
	}
	return nil
}

// digest hashes the written file, or for the reader the interior of every
// buffer it filled (verify covers the guard cells).
func (f *flashDriver) digest() ([sha256.Size]byte, error) {
	if !f.read {
		return fileDigest(f.fsys, flashPath)
	}
	h := sha256.New()
	row := make([]byte, 0, 8*f.memtype.Size())
	for _, bufs := range f.rbuf {
		for _, buf := range bufs {
			row = row[:0]
			for _, s := range f.memsegs {
				for _, x := range buf[s.Off : s.Off+s.Len] {
					row = binary.LittleEndian.AppendUint64(row, math.Float64bits(x))
				}
			}
			_, _ = h.Write(row) // a hash.Hash never returns an error
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum, nil
}

// verify compares every cell: a written file is read back whole through the
// serial library; read buffers must hold the field inside and the poison,
// untouched, in every guard cell.
func (f *flashDriver) verify() error {
	cfg, bpp := f.cfg, f.cfg.BlocksPerProc
	cells := cfg.NZB * cfg.NYB * cfg.NXB
	if f.read {
		for r, bufs := range f.rbuf {
			for v, buf := range bufs {
				want := f.data.fill(cfg, v, r*bpp, bpp)
				for i := range buf {
					if buf[i] != want[i] {
						return fmt.Errorf("rank %d read %s: buffer cell %d = %v, want %v", r, f.names[v], i, buf[i], want[i])
					}
				}
			}
		}
		return nil
	}
	d, _, err := openSerial(f.fsys, flashPath)
	if err != nil {
		return err
	}
	for r := 0; r < f.n; r++ {
		var lref, node [1]int32
		for b := 0; b < bpp; b++ {
			gb := []int64{int64(r*bpp + b)}
			if err := d.GetVar1(0, gb, lref[:]); err != nil {
				return err
			}
			if err := d.GetVar1(1, gb, node[:]); err != nil {
				return err
			}
			if lref[0] != f.lref[r][b] || node[0] != f.node[r][b] {
				return fmt.Errorf("tree metadata of block %d = (%d, %d), want (%d, %d)", gb[0], lref[0], node[0], f.lref[r][b], f.node[r][b])
			}
		}
	}
	got := make([]float64, f.n*bpp*cells)
	for v, name := range f.names {
		if err := d.GetVar(3+v, got); err != nil {
			return err
		}
		i := 0
		for gb := 0; gb < f.n*bpp; gb++ {
			for z := 0; z < cfg.NZB; z++ {
				for y := 0; y < cfg.NYB; y++ {
					for x := 0; x < cfg.NXB; x++ {
						if want := f.data.value(v, gb, z, y, x); got[i] != want {
							return fmt.Errorf("%s[%d,%d,%d,%d] = %v, want %v", name, gb, z, y, x, got[i], want)
						}
						i++
					}
				}
			}
		}
	}
	return nil
}

func (f *flashDriver) shapes() (shapes, error) {
	d, _, err := openSerial(f.fsys, flashPath)
	if err != nil {
		return shapes{}, err
	}
	s := shapes{hdr: d.Header(), fsCfg: f.mach.FS, memtype: &f.memsub}
	s.writes, s.reads = f.puts, f.gets
	biggest := &codecShape{typ: nctype.Double, memsegs: f.memsegs, bytes: f.memtype.Size() * 8}
	if f.read {
		s.prefs, s.path = f.fsys, flashPath
		biggest.data, s.dec = f.rbuf[0][0], biggest
	} else {
		biggest.data, s.encSegs = f.unk[0][0], biggest
	}
	return s, nil
}
