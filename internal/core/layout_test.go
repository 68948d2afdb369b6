package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
	"pnetcdf/internal/pfs"
)

// layoutStripe is the striping unit of the layout tests' file system: small,
// so that "four stripes or more" is 16 KiB and the variables stay cheap.
const layoutStripe = 4096

func stripedFS() *pfs.FS {
	cfg := pfs.DefaultConfig()
	cfg.StripeSize = layoutStripe
	return pfs.New(cfg)
}

// layoutFile is the schema the layout tests share: a small variable, two of
// eight stripes and a record variable, every cell written with a value that
// names it.
type layoutFile struct {
	d                   *Dataset
	small, a, b, series int
}

const (
	layoutSmall = 100
	layoutBig   = 8 * layoutStripe / 4
)

func layoutValue(varid, i int) int32 { return int32(varid<<24 | i) }

func ramp(varid, lo, n int) []int32 {
	v := make([]int32, n)
	for i := range v {
		v[i] = layoutValue(varid, lo+i)
	}
	return v
}

// layoutDefiner is the define-mode surface core and the serial library share.
type layoutDefiner interface {
	DefDim(name string, size int64) (int, error)
	DefVar(name string, t nctype.Type, dimids []int) (int, error)
	EndDef() error
}

func defineLayout(d layoutDefiner) (small, a, b, series int, err error) {
	t, _ := d.DefDim("t", 0)
	xs, _ := d.DefDim("xs", layoutSmall)
	xb, _ := d.DefDim("xb", layoutBig)
	small, _ = d.DefVar("small", nctype.Int, []int{xs})
	a, _ = d.DefVar("a", nctype.Int, []int{xb})
	b, _ = d.DefVar("b", nctype.Int, []int{xb})
	series, _ = d.DefVar("series", nctype.Int, []int{t, xs})
	return small, a, b, series, d.EndDef()
}

func createLayoutFile(c *mpi.Comm, fsys *pfs.FS, path string, info *mpi.Info) (*layoutFile, error) {
	d, err := Create(c, fsys, path, nctype.Clobber|nctype.Bit64Offset, info)
	if err != nil {
		return nil, err
	}
	f := &layoutFile{d: d}
	if f.small, f.a, f.b, f.series, err = defineLayout(d); err != nil {
		return nil, err
	}
	// Each rank writes its share of every variable.
	p, r := c.Size(), c.Rank()
	for _, v := range []struct{ id, n int }{{f.small, layoutSmall}, {f.a, layoutBig}, {f.b, layoutBig}} {
		lo, hi := v.n*r/p, v.n*(r+1)/p
		if err := d.PutVaraAll(v.id, []int64{int64(lo)}, []int64{int64(hi - lo)}, ramp(v.id, lo, hi-lo)); err != nil {
			return nil, err
		}
	}
	for rec := 0; rec < 3; rec++ {
		lo, hi := layoutSmall*r/p, layoutSmall*(r+1)/p
		if err := d.PutVaraAll(f.series, []int64{int64(rec), int64(lo)}, []int64{1, int64(hi - lo)}, ramp(f.series, rec*layoutSmall+lo, hi-lo)); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// check reads every cell back collectively.
func (f *layoutFile) check(d *Dataset) error {
	for _, v := range []struct{ id, n int }{{f.small, layoutSmall}, {f.a, layoutBig}, {f.b, layoutBig}} {
		got := make([]int32, v.n)
		if err := d.GetVaraAll(v.id, []int64{0}, []int64{int64(v.n)}, got); err != nil {
			return err
		}
		for i, g := range got {
			if g != layoutValue(v.id, i) {
				return fmt.Errorf("variable %d[%d] = %#x, want %#x", v.id, i, g, layoutValue(v.id, i))
			}
		}
	}
	got := make([]int32, 3*layoutSmall)
	if err := d.GetVaraAll(f.series, []int64{0, 0}, []int64{3, layoutSmall}, got); err != nil {
		return err
	}
	for i, g := range got {
		if g != layoutValue(f.series, i) {
			return fmt.Errorf("series[%d] = %#x, want %#x", i, g, layoutValue(f.series, i))
		}
	}
	return nil
}

// begins lists the variables' begin offsets.
func begins(d *Dataset) []int64 {
	var b []int64
	for i := range d.Header().Vars {
		b = append(b, d.Header().Vars[i].Begin)
	}
	return b
}

// moved runs fn and returns the bytes the communicator wrote raw during it
// other than header commits — what a relocation moved.
func moved(c *mpi.Comm, st *iostat.Stats, fn func() error) (int64, error) {
	before := st.Get(iostat.IORawBytesWritten) - st.Get(iostat.NCHeaderWriteBytes)
	if err := fn(); err != nil {
		return 0, err
	}
	after := st.Get(iostat.IORawBytesWritten) - st.Get(iostat.NCHeaderWriteBytes)
	return c.AllreduceI64([]int64{after - before}, mpi.OpSum)[0], nil
}

// TestDefaultLayoutAlignsLargeVariables: with no hint the stripe comes from
// MPI-IO and goes to the variables of four stripes or more; an explicit
// nc_var_align_size is applied to every fixed variable, and 1 is the serial
// library's layout to the byte.
func TestDefaultLayoutAlignsLargeVariables(t *testing.T) {
	fsys := stripedFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		for _, tc := range []struct {
			hint                string
			smallAt, bigAt, pad bool // on a stripe; padding in front of a
		}{
			{"", false, true, true},
			{"junk", false, true, true},
			{"0", false, true, true},
			{fmt.Sprint(layoutStripe), true, true, true},
			{"1", false, false, false},
		} {
			info := mpi.NewInfo()
			if tc.hint != "" {
				info.Set("nc_var_align_size", tc.hint)
			}
			f, err := createLayoutFile(c, fsys, "layout.nc", info)
			if err != nil {
				return err
			}
			h := f.d.Header()
			small, a, b, series := &h.Vars[f.small], &h.Vars[f.a], &h.Vars[f.b], &h.Vars[f.series]
			if got := small.Begin%layoutStripe == 0; got != tc.smallAt {
				return fmt.Errorf("hint %q: small begins at %d", tc.hint, small.Begin)
			}
			if a.Begin%layoutStripe == 0 != tc.bigAt || b.Begin%layoutStripe == 0 != tc.bigAt {
				return fmt.Errorf("hint %q: a, b begin at %d, %d", tc.hint, a.Begin, b.Begin)
			}
			if pad := a.Begin - (small.Begin + small.VSize); pad > 0 != tc.pad || pad >= layoutStripe {
				return fmt.Errorf("hint %q: %d bytes of padding before a", tc.hint, pad)
			}
			// b follows a whole number of stripes, the records follow b.
			if b.Begin != a.Begin+a.VSize || series.Begin != b.Begin+b.VSize {
				return fmt.Errorf("hint %q: b at %d, series at %d behind a at %d", tc.hint, b.Begin, series.Begin, a.Begin)
			}
			if err := f.check(f.d); err != nil {
				return fmt.Errorf("hint %q: %w", tc.hint, err)
			}
			if err := f.d.Close(); err != nil {
				return err
			}
		}
		return nil
	})
	// The file nc_var_align_size=1 left is the serial library's.
	ms := &netcdf.MemStore{}
	s, err := netcdf.Create(ms, nctype.Clobber|nctype.Bit64Offset)
	if err != nil {
		t.Fatal(err)
	}
	small, a, b, series, err := defineLayout(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []struct{ id, n int }{{small, layoutSmall}, {a, layoutBig}, {b, layoutBig}} {
		if err := s.PutVar(v.id, ramp(v.id, 0, v.n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutVara(series, []int64{0, 0}, []int64{3, layoutSmall}, ramp(series, 0, 3*layoutSmall)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	packed := readAll(t, fsys, "layout.nc")
	if n := s.Header().FileSize(); !bytes.Equal(packed, ms.Data[:n]) {
		t.Fatalf("nc_var_align_size=1 wrote %d bytes that differ from the serial library's %d", len(packed), n)
	}
}

// readAll returns the bytes of a pfs file.
func readAll(t *testing.T, fsys *pfs.FS, name string) []byte {
	t.Helper()
	f, _, err := fsys.Open(name, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, f.Size())
	if _, err := f.ReadAt(0, buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestRedefInsidePaddingMovesNoAlignedVariable: a header that grows by less
// than the padding in front of the first aligned variable moves the small
// variable behind it and nothing else — not a byte of the aligned variables,
// nor of the records behind them. (Saving that relocation is what PnetCDF has
// the alignment hints for.)
func TestRedefInsidePaddingMovesNoAlignedVariable(t *testing.T) {
	fsys := stripedFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		st := iostat.New()
		c.Proc().SetStats(st)
		f, err := createLayoutFile(c, fsys, "grow.nc", nil)
		if err != nil {
			return err
		}
		d := f.d
		before := begins(d)
		n, err := moved(c, st, func() error {
			if err := d.Redef(); err != nil {
				return err
			}
			if err := d.PutAttr(GlobalID, "history", nctype.Char, strings.Repeat("h", 1500)); err != nil {
				return err
			}
			return d.EndDef()
		})
		if err != nil {
			return err
		}
		after := begins(d)
		if after[f.small] <= before[f.small] {
			return fmt.Errorf("small did not move: %d -> %d", before[f.small], after[f.small])
		}
		for _, id := range []int{f.a, f.b, f.series} {
			if after[id] != before[id] {
				return fmt.Errorf("variable %d moved from %d to %d though the header grew inside the padding", id, before[id], after[id])
			}
		}
		if want := d.Header().Vars[f.small].VSize; n != want {
			return fmt.Errorf("relocation wrote %d bytes, want the small variable's %d", n, want)
		}
		if err := f.check(d); err != nil {
			return err
		}
		return d.Close()
	})
}

// TestRedefRelocatesAcrossLayoutRules: a file laid out under one rule and
// redefined under another moves to the rule in force at this open — a packed
// file's large variables to their stripes, once, and an aligned file opened
// with nc_var_align_size=1 back to the packed layout, toward the front of the
// file and onto its own old bytes — with every cell intact.
func TestRedefRelocatesAcrossLayoutRules(t *testing.T) {
	one := mpi.NewInfo().Set("nc_var_align_size", "1")
	for _, tc := range []struct {
		name           string
		create, reopen *mpi.Info
		aligned        bool // after the Redef
	}{
		{"packed file, default open", one, nil, true},
		{"aligned file, packed open", nil, one, false},
	} {
		fsys := stripedFS()
		runWorld(t, 3, func(c *mpi.Comm) error {
			st := iostat.New()
			c.Proc().SetStats(st)
			f, err := createLayoutFile(c, fsys, "relayout.nc", tc.create)
			if err != nil {
				return err
			}
			if err := f.d.Close(); err != nil {
				return err
			}
			d, err := Open(c, fsys, "relayout.nc", nctype.Write, tc.reopen)
			if err != nil {
				return err
			}
			before := begins(d)
			redef := func() error {
				if err := d.Redef(); err != nil {
					return err
				}
				return d.EndDef()
			}
			n, err := moved(c, st, redef)
			if err != nil {
				return err
			}
			h := d.Header()
			after := begins(d)
			if got := after[f.a]%layoutStripe == 0 && after[f.b]%layoutStripe == 0; got != tc.aligned || after[f.a] == before[f.a] {
				return fmt.Errorf("%s: a, b went from %d, %d to %d, %d", tc.name, before[f.a], before[f.b], after[f.a], after[f.b])
			}
			// Everything from a on moved; small, in front of it, did not.
			if want := 2*h.Vars[f.a].VSize + 3*h.RecSize(); n != want || after[f.small] != before[f.small] {
				return fmt.Errorf("%s: relocation wrote %d bytes, want %d; small at %d -> %d", tc.name, n, want, before[f.small], after[f.small])
			}
			if err := f.check(d); err != nil {
				return fmt.Errorf("%s: %w", tc.name, err)
			}
			// A file moved to a longer layout is as long as its header says;
			// one moved to a shorter layout keeps its length.
			if size, err := d.f.Size(); err != nil || tc.aligned && size != h.FileSize() || size < h.FileSize() {
				return fmt.Errorf("%s: file is %d bytes (%v), header declares %d", tc.name, size, err, h.FileSize())
			}
			// The file is where this open's rule puts it: again moves nothing.
			if n, err := moved(c, st, redef); err != nil || n != 0 {
				return fmt.Errorf("%s: a second Redef moved %d bytes (%v)", tc.name, n, err)
			}
			if err := d.Close(); err != nil {
				return err
			}
			// A read-only open under either rule reads the begins it finds.
			r, err := Open(c, fsys, "relayout.nc", nctype.NoWrite, tc.create)
			if err != nil {
				return err
			}
			if err := f.check(r); err != nil {
				return fmt.Errorf("%s, reopened: %w", tc.name, err)
			}
			return r.Close()
		})
	}
}

// TestRedefShrinkingHeaderRelocatesBackward: deleting an attribute moves
// packed variables toward the front of the file, each onto the tail of its
// predecessor's old place.
func TestRedefShrinkingHeaderRelocatesBackward(t *testing.T) {
	fsys := stripedFS()
	one := mpi.NewInfo().Set("nc_var_align_size", "1")
	runWorld(t, 2, func(c *mpi.Comm) error {
		f, err := createLayoutFile(c, fsys, "shrink.nc", one)
		if err != nil {
			return err
		}
		d := f.d
		for _, step := range []struct {
			name string
			edit func() error
		}{
			{"grow", func() error { return d.PutAttr(GlobalID, "scratch", nctype.Char, strings.Repeat("s", 700)) }},
			{"shrink", func() error { return d.DelAttr(GlobalID, "scratch") }},
		} {
			before := begins(d)
			if err := d.Redef(); err != nil {
				return err
			}
			if err := step.edit(); err != nil {
				return err
			}
			if err := d.EndDef(); err != nil {
				return err
			}
			if after := begins(d); (after[f.small] > before[f.small]) != (step.name == "grow") || after[f.small] == before[f.small] {
				return fmt.Errorf("%s: small went from %d to %d", step.name, before[f.small], after[f.small])
			}
			if err := f.check(d); err != nil {
				return fmt.Errorf("%s: %w", step.name, err)
			}
		}
		return d.Close()
	})
}
