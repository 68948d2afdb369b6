package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand/v2"

	"pnetcdf/internal/bench"
	"pnetcdf/internal/core"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
	"pnetcdf/internal/pfs"
)

// The metadata driver: thousands of small variable definitions, one header
// commit, a reopen and a lookup of every variable by name, with the data path
// idle. Every rank holds a header copy, so every rank makes every call.

const (
	metaPath     = "meta.nc"
	metaDimLen   = 16
	metaGAttrs   = 8
	metaNameMin  = 8 // variable names are metaNameMin..metaNameMin+metaNameSpan-1 characters
	metaNameSpan = 17
)

type metaDriver struct {
	n     int
	mach  bench.MachineSpec
	fsys  *pfs.FS
	guard sizeGuard

	gnames, gtexts []string  // global attributes
	names, units   []string  // per variable: name and its "units" text
	scales         []float64 // per variable: its "scale_factor"
	dimids         []int     // every variable's shape: the one dimension
	order          []int     // the seeded order of the lookups
	ref            []byte    // the header the serial library writes for the same definitions
}

// newMeta builds names, attribute values and the lookup order from the seed.
// Name lengths are a fixed multiset dealt out in seeded order, so the header
// size — the payload — does not depend on the seed.
func newMeta(nvars, nranks int, seed uint64) (*metaDriver, error) {
	rng := rand.New(rand.NewPCG(seed, 0x6d657461))
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789_"
	text := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.IntN(len(alphabet))]
		}
		b[0] = alphabet[rng.IntN(26)]
		return string(b)
	}
	f := &metaDriver{n: nranks, mach: bench.SDSCBlueHorizon(), order: rng.Perm(nvars), scales: make([]float64, nvars), dimids: []int{0}}
	for i := 0; i < metaGAttrs; i++ {
		f.gnames = append(f.gnames, fmt.Sprintf("history_%d", i))
		f.gtexts = append(f.gtexts, text(32))
	}
	seen := map[string]bool{}
	for _, j := range rng.Perm(nvars) {
		name := text(metaNameMin + j%metaNameSpan)
		for seen[name] {
			name = text(len(name))
		}
		seen[name] = true
		f.names = append(f.names, name)
		f.units = append(f.units, text(8))
	}
	for i := range f.scales {
		f.scales[i] = seededValue(seed, uint64(i))
	}
	// The serial library writes the same definitions to memory: its header
	// image is the oracle's expected bytes, and its size the payload.
	store := &netcdf.MemStore{}
	d, err := netcdf.Create(store, nctype.Bit64Offset)
	if err != nil {
		return nil, err
	}
	if err := f.define(d); err != nil {
		return nil, err
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	f.ref = store.Data[:d.Header().EncodedSize()]
	return f, nil
}

// define issues the workload's definitions; IDs come back in definition
// order, which lookup relies on.
func (f *metaDriver) define(d definer) error {
	for i, name := range f.gnames {
		if err := d.PutAttr(core.GlobalID, name, nctype.Char, f.gtexts[i]); err != nil {
			return err
		}
	}
	if _, err := d.DefDim("n", metaDimLen); err != nil {
		return err
	}
	for i, name := range f.names {
		v, err := d.DefVar(name, nctype.Float, f.dimids)
		if err != nil {
			return err
		}
		if err := d.PutAttr(v, "units", nctype.Char, f.units[i]); err != nil {
			return err
		}
		if err := d.PutAttr(v, "scale_factor", nctype.Double, f.scales[i:i+1]); err != nil {
			return err
		}
	}
	return nil
}

func (f *metaDriver) ranks() int          { return f.n }
func (f *metaDriver) net() mpi.NetConfig  { return f.mach.Net }
func (f *metaDriver) begin(*rand.Rand)    { f.fsys = f.mach.NewFS() }
func (f *metaDriver) fixtureBytes() int64 { return 0 }

func (f *metaDriver) shapes() (shapes, error) {
	d, _, err := openSerial(f.fsys, metaPath)
	if err != nil {
		return shapes{}, err
	}
	return shapes{hdr: d.Header(), fsCfg: f.mach.FS}, nil
}

// payload is the header written once and read once.
func (f *metaDriver) payload() int64 { return 2 * int64(len(f.ref)) }

func (f *metaDriver) rank(c *mpi.Comm, rs *rankSpans) error {
	var d *core.Dataset
	err := rs.do(spanOpen, func() (err error) {
		d, err = core.Create(c, f.fsys, metaPath, nctype.Bit64Offset, nil)
		return err
	})
	if err != nil {
		return err
	}
	if err := rs.do(spanDefine, func() error { return f.define(d) }); err != nil {
		return err
	}
	if err := rs.do(spanEndDef, d.EndDef); err != nil {
		return err
	}
	if err := rs.do(spanClose, d.Close); err != nil {
		return err
	}
	err = rs.do(spanOpen, func() (err error) {
		d, err = core.Open(c, f.fsys, metaPath, nctype.NoWrite, nil)
		return err
	})
	if err != nil {
		return err
	}
	err = rs.do(spanInq, func() error {
		for _, i := range f.order {
			v := d.VarID(f.names[i])
			if v != i {
				return fmt.Errorf("VarID(%s) = %d, want %d", f.names[i], v, i)
			}
			if _, typ, dimids, err := d.InqVar(v); err != nil || typ != nctype.Float || len(dimids) != 1 {
				return fmt.Errorf("InqVar(%d) = %v %v: %v", v, typ, dimids, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return rs.do(spanClose, d.Close)
}

// checkText holds a text attribute of the file against the fixture.
func checkText(d *netcdf.Dataset, varid int, name, want string) error {
	_, v, err := d.GetAttr(varid, name)
	if text, ok := v.([]byte); err != nil || !ok || string(text) != want {
		return fmt.Errorf("attribute %s of variable %d = %q, want %q: %v", name, varid, v, want, err)
	}
	return nil
}

// checkVar holds variable i of the file against the fixture.
func (f *metaDriver) checkVar(d *netcdf.Dataset, i int) error {
	if v := d.VarID(f.names[i]); v != i {
		return fmt.Errorf("VarID(%s) = %d, want %d", f.names[i], v, i)
	}
	if err := checkText(d, i, "units", f.units[i]); err != nil {
		return err
	}
	_, scale, err := d.GetAttr(i, "scale_factor")
	if s, ok := scale.([]float64); err != nil || !ok || len(s) != 1 || s[0] != f.scales[i] {
		return fmt.Errorf("%s:scale_factor = %v, want %v: %v", f.names[i], scale, f.scales[i], err)
	}
	return nil
}

func (f *metaDriver) check(rng *rand.Rand) error {
	d, size, err := openSerial(f.fsys, metaPath)
	if err != nil {
		return err
	}
	if err := f.guard.check(size); err != nil {
		return err
	}
	if d.NumVars() != len(f.names) {
		return fmt.Errorf("file holds %d variables, want %d", d.NumVars(), len(f.names))
	}
	pf, _, err := f.fsys.Open(metaPath, 0)
	if err != nil {
		return err
	}
	got := make([]byte, len(f.ref))
	if _, err := pf.ReadAt(0, got, 0); err != nil {
		return err
	}
	if !bytes.Equal(got, f.ref) {
		return fmt.Errorf("header differs from the one the serial library writes")
	}
	for k := 0; k < spotChecks; k++ {
		if err := f.checkVar(d, rng.IntN(len(f.names))); err != nil {
			return err
		}
	}
	return nil
}

func (f *metaDriver) digest() ([sha256.Size]byte, error) { return fileDigest(f.fsys, metaPath) }

func (f *metaDriver) verify() error {
	d, _, err := openSerial(f.fsys, metaPath)
	if err != nil {
		return err
	}
	for i := range f.names {
		if err := f.checkVar(d, i); err != nil {
			return err
		}
	}
	for i, name := range f.gnames {
		if err := checkText(d, netcdf.GlobalID, name, f.gtexts[i]); err != nil {
			return err
		}
	}
	return nil
}
