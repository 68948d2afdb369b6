package integration

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pnetcdf/internal/cdf"
	"pnetcdf/internal/core"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
	"pnetcdf/internal/pfs"
)

// metaLib is the metadata surface the two libraries share.
type metaLib interface {
	DefDim(name string, size int64) (int, error)
	DefVar(name string, t nctype.Type, dimids []int) (int, error)
	RenameDim(dimid int, name string) error
	RenameVar(varid int, name string) error
	PutAttr(varid int, name string, t nctype.Type, value any) error
	DelAttr(varid int, name string) error
	Redef() error
	EndDef() error
	Close() error
	DimID(name string) int
	VarID(name string) int
	UnlimitedDimID() int
	Header() *cdf.Header
}

func scanVars(h *cdf.Header, name string) int {
	for i := range h.Vars {
		if h.Vars[i].Name == name {
			return i
		}
	}
	return -1
}

func scanDims(h *cdf.Header, name string) int {
	for i := range h.Dims {
		if h.Dims[i].Name == name {
			return i
		}
	}
	return -1
}

// driveMetadata runs a seeded sequence of definitions, renames, attribute
// changes, define-mode transitions and reopens through one library, and
// after every step holds every DimID/VarID answer over the whole name pool —
// hits, misses, names renamed away — against a plain scan of the header's
// lists. Duplicate names must be refused exactly when the scan finds them.
// All names have one length, so renames are legal in data mode too.
func driveMetadata(seed int64, steps int, d metaLib, reopen func() (metaLib, error)) error {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]string, 150)
	for i := range pool {
		pool[i] = fmt.Sprintf("n%03d", i)
	}
	pick := func() string { return pool[rng.Intn(len(pool))] }
	define := true
	check := func(step int, op string) error {
		h := d.Header()
		for _, name := range pool {
			if got, want := d.VarID(name), scanVars(h, name); got != want {
				return fmt.Errorf("seed %d step %d (%s): VarID(%s) = %d, scan says %d", seed, step, op, name, got, want)
			}
			if got, want := d.DimID(name), scanDims(h, name); got != want {
				return fmt.Errorf("seed %d step %d (%s): DimID(%s) = %d, scan says %d", seed, step, op, name, got, want)
			}
		}
		return nil
	}
	// refused checks a name-taking call's outcome against what the scan said
	// before the call: in use by another object means ErrNameInUse, else nil.
	refused := func(step int, op string, err error, inUse bool) error {
		if inUse != errors.Is(err, nctype.ErrNameInUse) || (!inUse && err != nil) {
			return fmt.Errorf("seed %d step %d: %s: err = %v with the name in use = %v", seed, step, op, err, inUse)
		}
		return nil
	}
	for step := 0; step < steps; step++ {
		h := d.Header()
		op := ""
		switch k := rng.Intn(100); {
		case k < 40: // define a variable
			name := pick()
			op = "DefVar " + name
			if !define {
				if _, err := d.DefVar(name, nctype.Int, nil); !errors.Is(err, nctype.ErrNotInDefine) {
					return fmt.Errorf("seed %d step %d: DefVar in data mode: %v", seed, step, err)
				}
				break
			}
			var dimids []int
			for i := rng.Intn(3); i > 0 && len(h.Dims) > 0; i-- {
				if id := rng.Intn(len(h.Dims)); !h.Dims[id].IsUnlimited() || len(dimids) == 0 {
					dimids = append(dimids, id)
				}
			}
			inUse := scanVars(h, name) >= 0
			id, err := d.DefVar(name, nctype.Int, dimids)
			if err := refused(step, op, err, inUse); err != nil {
				return err
			}
			if !inUse && id != len(h.Vars)-1 {
				return fmt.Errorf("seed %d step %d: %s returned id %d", seed, step, op, id)
			}
		case k < 50: // define a dimension
			name := pick()
			op = "DefDim " + name
			if !define {
				break
			}
			size := int64(rng.Intn(4) + 1)
			if d.UnlimitedDimID() < 0 && rng.Intn(8) == 0 {
				size = 0
			}
			inUse := scanDims(h, name) >= 0
			_, err := d.DefDim(name, size)
			if err := refused(step, op, err, inUse); err != nil {
				return err
			}
		case k < 65: // rename a variable, sometimes to its own or a taken name
			if len(h.Vars) == 0 {
				break
			}
			id, name := rng.Intn(len(h.Vars)), pick()
			op = fmt.Sprintf("RenameVar %d %s", id, name)
			at := scanVars(h, name)
			err := d.RenameVar(id, name)
			if err := refused(step, op, err, at >= 0 && at != id); err != nil {
				return err
			}
		case k < 72: // rename a dimension
			if len(h.Dims) == 0 {
				break
			}
			id, name := rng.Intn(len(h.Dims)), pick()
			op = fmt.Sprintf("RenameDim %d %s", id, name)
			at := scanDims(h, name)
			err := d.RenameDim(id, name)
			if err := refused(step, op, err, at >= 0 && at != id); err != nil {
				return err
			}
		case k < 82: // set an attribute (same size, so legal in data mode as an overwrite)
			if len(h.Vars) == 0 {
				break
			}
			id, name := rng.Intn(len(h.Vars)), pool[rng.Intn(4)]
			op = fmt.Sprintf("PutAttr %d %s", id, name)
			_, _, err := d.(inqLib).GetAttr(id, name)
			isNew := errors.Is(err, nctype.ErrNotAtt)
			err = d.PutAttr(id, name, nctype.Int, []int32{int32(step)})
			if !define && isNew {
				if !errors.Is(err, nctype.ErrNotInDefine) {
					return fmt.Errorf("seed %d step %d: %s in data mode: %v", seed, step, op, err)
				}
			} else if err != nil {
				return fmt.Errorf("seed %d step %d: %s: %v", seed, step, op, err)
			}
		case k < 86: // delete an attribute
			if len(h.Vars) == 0 || !define {
				break
			}
			id, name := rng.Intn(len(h.Vars)), pool[rng.Intn(4)]
			op = fmt.Sprintf("DelAttr %d %s", id, name)
			_, _, err := d.(inqLib).GetAttr(id, name)
			had := err == nil
			if err := d.DelAttr(id, name); had != (err == nil) {
				return fmt.Errorf("seed %d step %d: %s: %v", seed, step, op, err)
			}
		case k < 94: // switch modes
			if define {
				op = "EndDef"
				if err := d.EndDef(); err != nil {
					return fmt.Errorf("seed %d step %d: EndDef: %v", seed, step, err)
				}
			} else {
				op = "Redef"
				if err := d.Redef(); err != nil {
					return fmt.Errorf("seed %d step %d: Redef: %v", seed, step, err)
				}
			}
			define = !define
		default: // close (which leaves define mode) and reopen
			op = "reopen"
			before := map[string][2]int{}
			for _, name := range pool {
				before[name] = [2]int{d.VarID(name), d.DimID(name)}
			}
			if err := d.Close(); err != nil {
				return fmt.Errorf("seed %d step %d: Close: %v", seed, step, err)
			}
			var err error
			if d, err = reopen(); err != nil {
				return fmt.Errorf("seed %d step %d: reopen: %v", seed, step, err)
			}
			define = false
			// Names and IDs survive the file.
			for _, name := range pool {
				if before[name] != [2]int{d.VarID(name), d.DimID(name)} {
					return fmt.Errorf("seed %d step %d: %s resolves differently after reopen", seed, step, name)
				}
			}
		}
		if err := check(step, op); err != nil {
			return err
		}
	}
	return d.Close()
}

// TestMetadataLookupsAgreeWithScan drives the sequence through both
// libraries: the serial one, and the parallel one on two ranks (every rank
// makes every call, and checks its own header copy).
func TestMetadataLookupsAgreeWithScan(t *testing.T) {
	const steps = 700 // enough DefVars to cross from the scanned to the hashed regime
	for seed := int64(1); seed <= 4; seed++ {
		store := &netcdf.MemStore{}
		sd, err := netcdf.Create(store, nctype.Bit64Offset)
		if err != nil {
			t.Fatal(err)
		}
		err = driveMetadata(seed, steps, sd, func() (metaLib, error) { return netcdf.Open(store, nctype.Write) })
		if err != nil {
			t.Fatalf("serial library: %v", err)
		}
		if h, err := cdf.Decode(store.Data); err != nil || len(h.Vars) <= 32 {
			t.Fatalf("serial library: final file: %v (%d variables; the run should leave more than 32)", err, len(h.Vars))
		}

		fsys := newFS()
		err = mpi.Run(2, mpi.DefaultNet(), func(c *mpi.Comm) error {
			pd, err := core.Create(c, fsys, "meta.nc", nctype.Bit64Offset, nil)
			if err != nil {
				return err
			}
			return driveMetadata(seed, steps, pd, func() (metaLib, error) {
				return core.Open(c, fsys, "meta.nc", nctype.Write, nil)
			})
		})
		if err != nil {
			t.Fatalf("parallel library: %v", err)
		}
		// The same calls leave the same header in both files.
		ph, err := cdf.Decode(readPFSFile(t, fsys, "meta.nc"))
		if err != nil {
			t.Fatal(err)
		}
		if sh, _ := cdf.Decode(store.Data); !bytes.Equal(sh.Encode(), ph.Encode()) {
			t.Fatalf("seed %d: the two libraries' headers differ", seed)
		}
	}
}

// TestInvalidDefinesFailAlikeInBothLibraries: each invalid define call,
// made on a CDF-1 file after the same setup, fails with the same class of
// error in the serial and the parallel library. The define rules live in
// one place (cdf.Header), so the order in which they are checked is one
// order: a bad type with a value it cannot encode is a bad type in both.
func TestInvalidDefinesFailAlikeInBothLibraries(t *testing.T) {
	dims := func(d metaLib) error {
		if _, err := d.DefDim("x", 2); err != nil {
			return err
		}
		_, err := d.DefDim("t", 0)
		return err
	}
	cases := []struct {
		name  string
		setup func(metaLib) error
		call  func(metaLib) error
		want  error
	}{
		{"bad name", dims, func(d metaLib) error {
			_, err := d.DefVar("a/b", nctype.Int, nil)
			return err
		}, nctype.ErrBadName},
		{"duplicate name", dims, func(d metaLib) error {
			_, err := d.DefDim("x", 3)
			return err
		}, nctype.ErrNameInUse},
		{"bad type", dims, func(d metaLib) error {
			return d.PutAttr(netcdf.GlobalID, "x", nctype.Int64, []int64{1})
		}, nctype.ErrBadType},
		{"bad type with a mismatched value", dims, func(d metaLib) error {
			return d.PutAttr(netcdf.GlobalID, "x", nctype.Int64, "abc")
		}, nctype.ErrBadType},
		{"too many attributes", func(d metaLib) error {
			for i := 0; i < nctype.MaxAttrs; i++ {
				if err := d.PutAttr(netcdf.GlobalID, fmt.Sprintf("a%d", i), nctype.Byte, int8(1)); err != nil {
					return err
				}
			}
			return nil
		}, func(d metaLib) error {
			return d.PutAttr(netcdf.GlobalID, "one_more", nctype.Byte, int8(1))
		}, nctype.ErrMaxAttrs},
		{"bad dimension ID", dims, func(d metaLib) error {
			_, err := d.DefVar("v", nctype.Int, []int{0, 5})
			return err
		}, nctype.ErrBadDim},
		{"unlimited dimension not first", dims, func(d metaLib) error {
			_, err := d.DefVar("v", nctype.Int, []int{0, 1})
			return err
		}, nctype.ErrUnlimPos},
		{"data-mode overwrite that grows", func(d metaLib) error {
			if err := d.PutAttr(netcdf.GlobalID, "title", nctype.Char, "abcd"); err != nil {
				return err
			}
			return d.EndDef()
		}, func(d metaLib) error {
			// Past the 4-byte padding: the header would grow. ("ab" to
			// "abc" stays within it, and is allowed.)
			return d.PutAttr(netcdf.GlobalID, "title", nctype.Char, "abcde")
		}, nctype.ErrNotInDefine},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(d metaLib) error {
				if err := tc.setup(d); err != nil {
					return fmt.Errorf("setup: %w", err)
				}
				if err := tc.call(d); !errors.Is(err, tc.want) {
					return fmt.Errorf("err = %v, want %v", err, tc.want)
				}
				return nil
			}
			sd, err := netcdf.Create(&netcdf.MemStore{}, nctype.Clobber)
			if err != nil {
				t.Fatal(err)
			}
			if err := run(sd); err != nil {
				t.Errorf("serial library: %v", err)
			}
			err = mpi.Run(1, mpi.DefaultNet(), func(c *mpi.Comm) error {
				pd, err := core.Create(c, newFS(), "bad.nc", nctype.Clobber, nil)
				if err != nil {
					return err
				}
				return run(pd)
			})
			if err != nil {
				t.Errorf("parallel library: %v", err)
			}
		})
	}
}

// manyVarValue is what element j of variable i holds in the relocation tests.
func manyVarValue(i, j int) int32 { return int32(i*10 + j) }

// TestRedefRelocatesManyVariables: adding a variable to a 2000-variable file
// grows the header, so EndDef moves every old variable; each must still hold
// its data afterwards — in the parallel library on two ranks (the moves are
// dealt out round-robin) and in the serial one.
func TestRedefRelocatesManyVariables(t *testing.T) {
	const nvars, xlen = 2000, 3
	name := func(i int) string { return fmt.Sprintf("field_%04d", (i*7919)%nvars) }
	verify := func(get func(v int, out []int32) error, varID func(string) int) error {
		out := make([]int32, xlen)
		for i := 0; i < nvars; i++ {
			if id := varID(name(i)); id != i {
				return fmt.Errorf("VarID(%s) = %d, want %d", name(i), id, i)
			}
			if err := get(i, out); err != nil {
				return err
			}
			for j, got := range out {
				if got != manyVarValue(i, j) {
					return fmt.Errorf("%s[%d] = %d after relocation, want %d", name(i), j, got, manyVarValue(i, j))
				}
			}
		}
		return nil
	}
	row := func(i int) []int32 {
		r := make([]int32, xlen)
		for j := range r {
			r[j] = manyVarValue(i, j)
		}
		return r
	}

	t.Run("serial", func(t *testing.T) {
		store := &netcdf.MemStore{}
		d, err := netcdf.Create(store, nctype.Bit64Offset)
		if err != nil {
			t.Fatal(err)
		}
		x, _ := d.DefDim("x", xlen)
		for i := 0; i < nvars; i++ {
			if _, err := d.DefVar(name(i), nctype.Int, []int{x}); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.EndDef(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nvars; i++ {
			if err := d.PutVara(i, []int64{0}, []int64{xlen}, row(i)); err != nil {
				t.Fatal(err)
			}
		}
		before := d.Header().Vars[0].Begin
		if err := d.Redef(); err != nil {
			t.Fatal(err)
		}
		if _, err := d.DefVar("a_late_arrival_with_a_long_name", nctype.Int, []int{x}); err != nil {
			t.Fatal(err)
		}
		if err := d.EndDef(); err != nil {
			t.Fatal(err)
		}
		if d.Header().Vars[0].Begin == before {
			t.Fatal("the new variable did not move the data; the test exercises nothing")
		}
		get := func(v int, out []int32) error { return d.GetVara(v, []int64{0}, []int64{xlen}, out) }
		if err := verify(get, d.VarID); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("parallel", func(t *testing.T) {
		fsys := newFS()
		err := mpi.Run(2, mpi.DefaultNet(), func(c *mpi.Comm) error {
			d, err := core.Create(c, fsys, "many.nc", nctype.Bit64Offset, nil)
			if err != nil {
				return err
			}
			x, _ := d.DefDim("x", xlen)
			for i := 0; i < nvars; i++ {
				if _, err := d.DefVar(name(i), nctype.Int, []int{x}); err != nil {
					return err
				}
			}
			if err := d.EndDef(); err != nil {
				return err
			}
			// Each rank writes the variables of its parity, independently.
			if err := d.BeginIndepData(); err != nil {
				return err
			}
			for i := c.Rank(); i < nvars; i += c.Size() {
				if err := d.PutVara(i, []int64{0}, []int64{xlen}, row(i)); err != nil {
					return err
				}
			}
			if err := d.EndIndepData(); err != nil {
				return err
			}
			before := d.Header().Vars[0].Begin
			if err := d.Redef(); err != nil {
				return err
			}
			if _, err := d.DefVar("a_late_arrival_with_a_long_name", nctype.Int, []int{x}); err != nil {
				return err
			}
			if err := d.EndDef(); err != nil {
				return err
			}
			if d.Header().Vars[0].Begin == before {
				return fmt.Errorf("the new variable did not move the data; the test exercises nothing")
			}
			if err := d.BeginIndepData(); err != nil {
				return err
			}
			get := func(v int, out []int32) error { return d.GetVara(v, []int64{0}, []int64{xlen}, out) }
			if err := verify(get, d.VarID); err != nil {
				return fmt.Errorf("rank %d: %w", c.Rank(), err)
			}
			if err := d.EndIndepData(); err != nil {
				return err
			}
			return d.Close()
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// corruptListTag flips a bit in the dim_list tag of a header image: a
// failure no larger probe can cure.
func corruptListTag(img []byte) { img[4+4+3] ^= 0x40 }

// countingStore counts what the serial library reads.
type countingStore struct {
	*netcdf.MemStore
	bytesRead int64
}

func (s *countingStore) ReadAt(p []byte, off int64) (int, error) {
	s.bytesRead += int64(len(p))
	return s.MemStore.ReadAt(p, off)
}

// TestCorruptHeaderOfLargeFileFailsFast: opening a 64 MiB file whose header
// is corrupt (not truncated) costs the first 64 KiB probe and the journal
// trailer — not probe after probe up to the whole file — in both libraries,
// and every rank reports the file as not netCDF.
func TestCorruptHeaderOfLargeFileFailsFast(t *testing.T) {
	const fileSize = 64 << 20
	const limit = 64<<10 + 16 // the first probe and the commit journal's trailer

	t.Run("serial", func(t *testing.T) {
		ms := &netcdf.MemStore{}
		d, err := netcdf.Create(ms, nctype.Clobber)
		if err != nil {
			t.Fatal(err)
		}
		x, _ := d.DefDim("x", 4)
		if _, err := d.DefVar("v", nctype.Int, []int{x}); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		ms.Data = append(ms.Data, make([]byte, fileSize-len(ms.Data))...)
		corruptListTag(ms.Data)
		cs := &countingStore{MemStore: ms}
		if _, err := netcdf.Open(cs, nctype.NoWrite); !errors.Is(err, nctype.ErrNotNC) {
			t.Fatalf("Open = %v, want ErrNotNC", err)
		}
		if cs.bytesRead > limit {
			t.Fatalf("Open read %d bytes of a corrupt file, want at most %d", cs.bytesRead, limit)
		}
	})

	t.Run("parallel", func(t *testing.T) {
		fsys := newFS()
		err := mpi.Run(2, mpi.DefaultNet(), func(c *mpi.Comm) error {
			d, err := core.Create(c, fsys, "big.nc", nctype.Clobber, nil)
			if err != nil {
				return err
			}
			x, _ := d.DefDim("x", 4)
			if _, err := d.DefVar("v", nctype.Int, []int{x}); err != nil {
				return err
			}
			return d.Close()
		})
		if err != nil {
			t.Fatal(err)
		}
		pf, _, err := fsys.Open("big.nc", 0)
		if err != nil {
			t.Fatal(err)
		}
		sf := pfs.NewSerialFile(pf, 0)
		head := make([]byte, 16)
		if _, err := sf.ReadAt(head, 0); err != nil {
			t.Fatal(err)
		}
		corruptListTag(head)
		if _, err := sf.WriteAt(head, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := sf.WriteAt([]byte{0}, fileSize-1); err != nil { // extend; the file stays sparse
			t.Fatal(err)
		}
		err = mpi.Run(2, mpi.DefaultNet(), func(c *mpi.Comm) error {
			c.Proc().SetStats(iostat.New())
			_, err := core.Open(c, fsys, "big.nc", nctype.NoWrite, nil)
			if !errors.Is(err, nctype.ErrNotNC) {
				return fmt.Errorf("rank %d: Open = %v, want ErrNotNC", c.Rank(), err)
			}
			if got := c.Proc().Stats().Get(iostat.IORawBytesRead); got > limit {
				return fmt.Errorf("rank %d: Open read %d header bytes of a corrupt file, want at most %d", c.Rank(), got, limit)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// inqLib is the inquiry surface the two libraries share.
type inqLib interface {
	NumDims() int
	NumVars() int
	NumRecs() int64
	UnlimitedDimID() int
	InqDim(dimid int) (string, int64, error)
	InqVar(varid int) (string, nctype.Type, []int, error)
	VarShape(varid int) ([]int64, error)
	GetAttr(varid int, name string) (nctype.Type, any, error)
	AttrNames(varid int) ([]string, error)
	RenameAttr(varid int, oldName, newName string) error
	Sync() error
}

var (
	_ metaLib = (*netcdf.Dataset)(nil)
	_ metaLib = (*core.Dataset)(nil)
	_ inqLib  = (*netcdf.Dataset)(nil)
	_ inqLib  = (*core.Dataset)(nil)
)

// TestDatasetMethodSets pins both libraries' exported method sets: the
// shared netCDF front they embed adds no method to either, and removes none.
func TestDatasetMethodSets(t *testing.T) {
	for _, tc := range []struct {
		lib  string
		typ  reflect.Type
		want string
	}{
		{"netcdf", reflect.TypeOf((*netcdf.Dataset)(nil)),
			"Abort AttrNames Close DefDim DefVar DelAttr DimID EndDef GetAttr GetVar GetVar1 GetVara GetVarm GetVars Header " +
				"InqDim InqVar NumDims NumRecs NumVars PutAttr PutVar PutVar1 PutVara PutVarm PutVars Redef RenameAttr RenameDim " +
				"RenameVar SetFill Sync UnlimitedDimID VarID VarShape"},
		{"core", reflect.TypeOf((*core.Dataset)(nil)),
			"AttrNames BeginIndepData Close Comm DefDim DefVar DelAttr DimID EndDef EndIndepData GetAttr GetVar1 GetVarAll " +
				"GetVara GetVaraAll GetVaraType GetVaraTypeAll GetVarm GetVarmAll GetVars GetVarsAll GetVarsTypeAll Header " +
				"IGetVara IGetVaraType IPutVara IPutVaraType InqDim InqVar NumDims NumRecs NumVars PutAttr PutVar1 PutVarAll " +
				"PutVara PutVaraAll PutVaraType PutVaraTypeAll PutVarm PutVarmAll PutVars PutVarsAll PutVarsTypeAll Redef " +
				"RenameAttr RenameDim RenameVar SetFill Sync UnlimitedDimID VarID VarShape WaitAll"},
	} {
		names := make([]string, tc.typ.NumMethod())
		for i := range names {
			names[i] = tc.typ.Method(i).Name
		}
		if got := strings.Join(names, " "); got != tc.want {
			t.Errorf("%s.Dataset methods:\n got %s\nwant %s", tc.lib, got, tc.want)
		}
	}
}

// modeDS is one library's dataset as the mode-parity test drives it: the
// shared define and inquiry surface, plus a put and a get of the subarray
// (start 0, count len(buf)) of a 1-D variable — collective in the parallel
// library, plain calls in the serial one.
type modeDS struct {
	metaLib
	inqLib
	put, get func(varid int, buf []int32) error
}

// modeScenario makes every call a mode forbids, in every mode: define mode,
// data mode, a read-only open and a closed handle, plus inquiries of IDs
// that do not exist. It returns one line per call, in a fixed order: the
// error the mode rule names, or — when the call returned another — both.
func modeScenario(create, openReadOnly func() (modeDS, error)) ([]string, error) {
	var out []string
	expect := func(label string, err, want error) {
		if !errors.Is(err, want) {
			out = append(out, fmt.Sprintf("%s: %v, want %v", label, err, want))
			return
		}
		out = append(out, fmt.Sprintf("%s: %v", label, want))
	}
	buf := make([]int32, 4)
	d, err := create()
	if err != nil {
		return nil, err
	}
	x, err := d.DefDim("x", 4)
	if err != nil {
		return nil, err
	}
	v, err := d.DefVar("v", nctype.Int, []int{x})
	if err != nil {
		return nil, err
	}
	if err := d.PutAttr(v, "units", nctype.Char, "m"); err != nil {
		return nil, err
	}
	expect("define: put", d.put(v, buf), nctype.ErrInDefine)
	expect("define: get", d.get(v, buf), nctype.ErrInDefine)
	expect("define: Redef", d.Redef(), nctype.ErrInDefine)
	expect("define: RenameDim of a bad ID", d.RenameDim(7, "y"), nctype.ErrNotDim)
	expect("define: RenameVar of a bad ID", d.RenameVar(7, "w"), nctype.ErrNotVar)
	if err := d.EndDef(); err != nil {
		return nil, err
	}

	_, err = d.DefDim("y", 2)
	expect("data: DefDim", err, nctype.ErrNotInDefine)
	_, err = d.DefVar("w", nctype.Int, []int{x})
	expect("data: DefVar", err, nctype.ErrNotInDefine)
	expect("data: DelAttr", d.DelAttr(v, "units"), nctype.ErrNotInDefine)
	expect("data: PutAttr of a new attribute", d.PutAttr(v, "long_name", nctype.Char, "v"), nctype.ErrNotInDefine)
	expect("data: EndDef", d.EndDef(), nctype.ErrNotInDefine)
	for _, id := range []int{-1, 1} {
		_, _, err = d.InqDim(id)
		expect(fmt.Sprintf("data: InqDim(%d)", id), err, nctype.ErrNotDim)
	}
	for _, id := range []int{-1, 1} {
		_, _, _, err = d.InqVar(id)
		expect(fmt.Sprintf("data: InqVar(%d)", id), err, nctype.ErrNotVar)
		_, err = d.VarShape(id)
		expect(fmt.Sprintf("data: VarShape(%d)", id), err, nctype.ErrNotVar)
		expect(fmt.Sprintf("data: put to %d", id), d.put(id, buf), nctype.ErrNotVar)
	}
	if err := d.put(v, buf); err != nil {
		return nil, err
	}
	if err := d.Close(); err != nil {
		return nil, err
	}

	expect("closed: Close again", d.Close(), nil)
	_, err = d.DefDim("y", 2)
	expect("closed: DefDim", err, nctype.ErrClosed)
	_, err = d.DefVar("w", nctype.Int, []int{x})
	expect("closed: DefVar", err, nctype.ErrClosed)
	expect("closed: PutAttr", d.PutAttr(v, "units", nctype.Char, "m"), nctype.ErrClosed)
	_, _, err = d.GetAttr(v, "units")
	expect("closed: GetAttr", err, nctype.ErrClosed)
	expect("closed: DelAttr", d.DelAttr(v, "units"), nctype.ErrClosed)
	expect("closed: RenameDim", d.RenameDim(x, "y"), nctype.ErrClosed)
	expect("closed: RenameVar", d.RenameVar(v, "w"), nctype.ErrClosed)
	expect("closed: RenameAttr", d.RenameAttr(v, "units", "unit"), nctype.ErrClosed)
	expect("closed: EndDef", d.EndDef(), nctype.ErrClosed)
	expect("closed: Redef", d.Redef(), nctype.ErrClosed)
	expect("closed: Sync", d.Sync(), nctype.ErrClosed)
	expect("closed: put", d.put(v, buf), nctype.ErrClosed)
	expect("closed: get", d.get(v, buf), nctype.ErrClosed)

	if d, err = openReadOnly(); err != nil {
		return nil, err
	}
	_, err = d.DefDim("y", 2)
	expect("read-only: DefDim", err, nctype.ErrPerm)
	_, err = d.DefVar("w", nctype.Int, []int{x})
	expect("read-only: DefVar", err, nctype.ErrPerm)
	expect("read-only: PutAttr", d.PutAttr(v, "units", nctype.Char, "m"), nctype.ErrPerm)
	expect("read-only: DelAttr", d.DelAttr(v, "units"), nctype.ErrPerm)
	expect("read-only: RenameDim", d.RenameDim(x, "y"), nctype.ErrPerm)
	expect("read-only: RenameVar", d.RenameVar(v, "w"), nctype.ErrPerm)
	expect("read-only: RenameAttr", d.RenameAttr(v, "units", "unit"), nctype.ErrPerm)
	expect("read-only: Redef", d.Redef(), nctype.ErrPerm)
	expect("read-only: EndDef", d.EndDef(), nctype.ErrPerm)
	expect("read-only: put", d.put(v, buf), nctype.ErrPerm)
	expect("read-only: get", d.get(v, buf), nil)
	return out, d.Close()
}

// TestModeErrorsAlikeInBothLibraries: every call a mode forbids fails with
// the same typed error in the serial and the parallel library — after
// Close ErrClosed, a define call in data mode ErrNotInDefine, a put or get
// in define mode ErrInDefine, a define or attribute call on a read-only
// open ErrPerm, an inquiry of a missing ID ErrNotDim or ErrNotVar.
func TestModeErrorsAlikeInBothLibraries(t *testing.T) {
	store := &netcdf.MemStore{}
	serial := func(d *netcdf.Dataset) modeDS {
		return modeDS{d, d,
			func(v int, buf []int32) error { return d.PutVara(v, []int64{0}, []int64{int64(len(buf))}, buf) },
			func(v int, buf []int32) error { return d.GetVara(v, []int64{0}, []int64{int64(len(buf))}, buf) }}
	}
	sout, err := modeScenario(func() (modeDS, error) {
		d, err := netcdf.Create(store, nctype.Clobber)
		return serial(d), err
	}, func() (modeDS, error) {
		d, err := netcdf.Open(store, nctype.NoWrite)
		if err != nil {
			return modeDS{}, err
		}
		return serial(d), nil
	})
	if err != nil {
		t.Fatalf("serial library: %v", err)
	}

	var pout []string
	fsys := newFS()
	err = mpi.Run(1, mpi.DefaultNet(), func(c *mpi.Comm) error {
		parallel := func(d *core.Dataset) modeDS {
			return modeDS{d, d,
				func(v int, buf []int32) error { return d.PutVaraAll(v, []int64{0}, []int64{int64(len(buf))}, buf) },
				func(v int, buf []int32) error { return d.GetVaraAll(v, []int64{0}, []int64{int64(len(buf))}, buf) }}
		}
		var err error
		pout, err = modeScenario(func() (modeDS, error) {
			d, err := core.Create(c, fsys, "mode.nc", nctype.Clobber, nil)
			if err != nil {
				return modeDS{}, err
			}
			return parallel(d), nil
		}, func() (modeDS, error) {
			d, err := core.Open(c, fsys, "mode.nc", nctype.NoWrite, nil)
			if err != nil {
				return modeDS{}, err
			}
			return parallel(d), nil
		})
		return err
	})
	if err != nil {
		t.Fatalf("parallel library: %v", err)
	}
	if len(sout) != len(pout) {
		t.Fatalf("serial library made %d checks, parallel %d", len(sout), len(pout))
	}
	for i := range sout {
		if strings.Contains(sout[i], ", want ") {
			t.Errorf("serial library: %s", sout[i])
		}
		if strings.Contains(pout[i], ", want ") {
			t.Errorf("parallel library: %s", pout[i])
		}
	}
}
