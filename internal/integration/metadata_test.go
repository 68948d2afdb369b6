package integration

import (
	"errors"
	"fmt"
	"math/rand"
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
			if h.UnlimitedDimID() < 0 && rng.Intn(8) == 0 {
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
			isNew := cdf.FindAttr(h.Vars[id].Attrs, name) < 0
			err := d.PutAttr(id, name, nctype.Int, []int32{int32(step)})
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
			had := cdf.FindAttr(h.Vars[id].Attrs, name) >= 0
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
			before := d.Header().Clone()
			if err := d.Close(); err != nil {
				return fmt.Errorf("seed %d step %d: Close: %v", seed, step, err)
			}
			var err error
			if d, err = reopen(); err != nil {
				return fmt.Errorf("seed %d step %d: reopen: %v", seed, step, err)
			}
			define = false
			// The clone taken before the close answers as the reopened
			// header does: names and IDs survive the file.
			for _, name := range pool {
				if before.FindVar(name) != d.VarID(name) || before.FindDim(name) != d.DimID(name) {
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
		if sh, _ := cdf.Decode(store.Data); !sh.Equal(ph) {
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
			if err := d.PutAttr(netcdf.GlobalID, "title", nctype.Char, "ab"); err != nil {
				return err
			}
			return d.EndDef()
		}, func(d metaLib) error {
			return d.PutAttr(netcdf.GlobalID, "title", nctype.Char, "abc")
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
	netcdf.Store
	bytesRead int64
}

func (s *countingStore) ReadAt(p []byte, off int64) (int, error) {
	s.bytesRead += int64(len(p))
	return s.Store.ReadAt(p, off)
}

// TestCorruptHeaderOfLargeFileFailsFast: opening a 64 MiB file whose header
// is corrupt (not truncated) costs the first 64 KiB probe and the journal
// trailer — not probe after probe up to the whole file — in both libraries,
// and every rank reports the file as not netCDF.
func TestCorruptHeaderOfLargeFileFailsFast(t *testing.T) {
	const fileSize = 64 << 20
	const limit = 64<<10 + cdf.JournalTrailerSize

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
		cs := &countingStore{Store: ms}
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
