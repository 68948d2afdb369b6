// Package integration runs cross-layer scenarios spanning the whole stack:
// parallel writers against serial readers, decomposition changes between
// write and read, define-mode cycles with live data, large-file (CDF-2)
// handling, hint sweeps, and randomized cross-library fuzzing.
package integration

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pnetcdf/internal/cdl"
	"pnetcdf/internal/core"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpiio"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
	"pnetcdf/internal/pfs"
)

func newFS() *pfs.FS { return pfs.New(pfs.DefaultConfig()) }

// TestWriteWithPReadWithQ writes a 3-D variable with one process count and
// rereads it with several different ones; every decomposition must see the
// same bytes.
func TestWriteWithPReadWithQ(t *testing.T) {
	fsys := newFS()
	const Z, Y, X = 12, 10, 8
	value := func(z, y, x int64) float64 {
		return float64(z)*10000 + float64(y)*100 + float64(x)
	}
	// Write with 3 processes, Z-partitioned.
	err := mpi.Run(3, mpi.DefaultNet(), func(c *mpi.Comm) error {
		d, err := core.Create(c, fsys, "pq.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		z, _ := d.DefDim("z", Z)
		y, _ := d.DefDim("y", Y)
		x, _ := d.DefDim("x", X)
		v, _ := d.DefVar("field", nctype.Double, []int{z, y, x})
		if err := d.EndDef(); err != nil {
			return err
		}
		share := Z / 3
		z0 := int64(c.Rank() * share)
		buf := make([]float64, share*Y*X)
		i := 0
		for zz := z0; zz < z0+int64(share); zz++ {
			for yy := int64(0); yy < Y; yy++ {
				for xx := int64(0); xx < X; xx++ {
					buf[i] = value(zz, yy, xx)
					i++
				}
			}
		}
		if err := d.PutVaraAll(v, []int64{z0, 0, 0}, []int64{int64(share), Y, X}, buf); err != nil {
			return err
		}
		return d.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Reread with 1, 2, 4, 5 processes, X-partitioned (different axis).
	for _, q := range []int{1, 2, 4, 5} {
		err := mpi.Run(q, mpi.DefaultNet(), func(c *mpi.Comm) error {
			d, err := core.Open(c, fsys, "pq.nc", nctype.NoWrite, nil)
			if err != nil {
				return err
			}
			base := X / int64(q)
			rem := X % int64(q)
			x0 := base*int64(c.Rank()) + min64(int64(c.Rank()), rem)
			cnt := base
			if int64(c.Rank()) < rem {
				cnt++
			}
			if cnt == 0 {
				return d.Close()
			}
			buf := make([]float64, Z*Y*cnt)
			if err := d.GetVaraAll(d.VarID("field"), []int64{0, 0, x0}, []int64{Z, Y, cnt}, buf); err != nil {
				return err
			}
			i := 0
			for zz := int64(0); zz < Z; zz++ {
				for yy := int64(0); yy < Y; yy++ {
					for xx := x0; xx < x0+cnt; xx++ {
						if buf[i] != value(zz, yy, xx) {
							return fmt.Errorf("q=%d rank=%d: (%d,%d,%d) = %v", q, c.Rank(), zz, yy, xx, buf[i])
						}
						i++
					}
				}
			}
			return d.Close()
		})
		if err != nil {
			t.Fatalf("reread with %d procs: %v", q, err)
		}
	}
}

// TestCDF2LargeOffsets builds a CDF-2 file whose second variable begins
// beyond 2 GiB and verifies access to it from multiple processes. Discard
// keeps memory flat; correctness is verified through the retained header
// and small probe writes.
func TestCDF2LargeOffsets(t *testing.T) {
	cfg := pfs.DefaultConfig()
	cfg.Discard = true
	fsys := pfs.New(cfg)
	err := mpi.Run(2, mpi.DefaultNet(), func(c *mpi.Comm) error {
		d, err := core.Create(c, fsys, "big.nc", nctype.Bit64Offset, nil)
		if err != nil {
			return err
		}
		z, _ := d.DefDim("z", 640)
		y, _ := d.DefDim("y", 1024)
		x, _ := d.DefDim("x", 1024)
		big, err := d.DefVar("big", nctype.Float, []int{z, y, x}) // 2.5 GiB
		if err != nil {
			return err
		}
		small, err := d.DefVar("tail", nctype.Int, []int{x})
		if err != nil {
			return err
		}
		if err := d.EndDef(); err != nil {
			return err
		}
		h := d.Header()
		if h.Vars[small].Begin < (1 << 31) {
			return fmt.Errorf("tail begins at %d, expected beyond 2 GiB", h.Vars[small].Begin)
		}
		// Write a sliver of the big variable and the small one (small writes
		// are retained even in Discard mode).
		if err := d.PutVaraAll(big, []int64{639, 1023, 0}, []int64{1, 1, 4},
			[]float32{1, 2, 3, 4}); err != nil {
			return err
		}
		vals := make([]int32, 512)
		for i := range vals {
			vals[i] = int32(i ^ 0x55)
		}
		if err := d.PutVaraAll(small, []int64{int64(c.Rank() * 512)}, []int64{512}, vals); err != nil {
			return err
		}
		got := make([]int32, 4)
		if err := d.GetVaraAll(small, []int64{1000}, []int64{4}, got); err != nil {
			return err
		}
		for i := range got {
			if got[i] != int32((1000-512+i)^0x55) {
				return fmt.Errorf("tail[%d] = %d", 1000+i, got[i])
			}
		}
		return d.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRedefCycleWithDataUnderLoad interleaves define-mode cycles with
// parallel data access.
func TestRedefCycleWithDataUnderLoad(t *testing.T) {
	fsys := newFS()
	err := mpi.Run(4, mpi.DefaultNet(), func(c *mpi.Comm) error {
		d, err := core.Create(c, fsys, "cycle.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		x, _ := d.DefDim("x", 16)
		v0, _ := d.DefVar("v0", nctype.Int, []int{x})
		if err := d.EndDef(); err != nil {
			return err
		}
		vals := make([]int32, 4)
		for i := range vals {
			vals[i] = int32(c.Rank()*10 + i)
		}
		if err := d.PutVaraAll(v0, []int64{int64(c.Rank() * 4)}, []int64{4}, vals); err != nil {
			return err
		}
		// Three define cycles, each adding a variable and rewriting data.
		for cycle := 1; cycle <= 3; cycle++ {
			if err := d.Redef(); err != nil {
				return err
			}
			name := fmt.Sprintf("v%d", cycle)
			vn, err := d.DefVar(name, nctype.Float, []int{x})
			if err != nil {
				return err
			}
			if err := d.PutAttr(vn, "cycle", nctype.Int, int32(cycle)); err != nil {
				return err
			}
			if err := d.EndDef(); err != nil {
				return err
			}
			fv := make([]float32, 4)
			for i := range fv {
				fv[i] = float32(cycle*100 + c.Rank()*10 + i)
			}
			if err := d.PutVaraAll(vn, []int64{int64(c.Rank() * 4)}, []int64{4}, fv); err != nil {
				return err
			}
			// v0 must survive every relocation.
			got := make([]int32, 4)
			if err := d.GetVaraAll(v0, []int64{int64(c.Rank() * 4)}, []int64{4}, got); err != nil {
				return err
			}
			for i := range got {
				if got[i] != int32(c.Rank()*10+i) {
					return fmt.Errorf("cycle %d: v0 lost: %v", cycle, got)
				}
			}
		}
		return d.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Final structure check through the serial library.
	pf, _, _ := fsys.Open("cycle.nc", 0)
	sd, err := netcdf.Open(pfs.NewSerialFile(pf, 0), nctype.NoWrite)
	if err != nil {
		t.Fatal(err)
	}
	if sd.NumVars() != 4 {
		t.Fatalf("vars = %d", sd.NumVars())
	}
	f3 := make([]float32, 16)
	if err := sd.GetVar(sd.VarID("v3"), f3); err != nil {
		t.Fatal(err)
	}
	if f3[5] != 310+1 {
		t.Fatalf("v3[5] = %v", f3[5])
	}
}

// TestRandomizedCrossLibraryFuzz writes random subarrays in parallel and
// mirrors every operation in an in-memory oracle; afterwards the file is
// read with the serial library and compared element by element.
func TestRandomizedCrossLibraryFuzz(t *testing.T) {
	fsys := newFS()
	const Z, Y, X = 6, 7, 9
	oracle := make([]float64, Z*Y*X)
	rng := rand.New(rand.NewSource(20260706))
	type op struct {
		start, count [3]int64
		vals         []float64
	}
	// Pre-generate disjoint-rank operations: each round, each rank writes a
	// random block of its own Z-slice, so collective writes never overlap.
	var rounds [][]op
	const nprocs = 3
	for r := 0; r < 25; r++ {
		var ops []op
		for rank := 0; rank < nprocs; rank++ {
			z0 := int64(rank * 2)
			o := op{}
			o.start = [3]int64{z0 + rng.Int63n(2), rng.Int63n(Y), rng.Int63n(X)}
			o.count = [3]int64{1, rng.Int63n(Y-o.start[1]) + 1, rng.Int63n(X-o.start[2]) + 1}
			n := o.count[0] * o.count[1] * o.count[2]
			o.vals = make([]float64, n)
			for i := range o.vals {
				o.vals[i] = rng.Float64()
			}
			ops = append(ops, o)
			// Mirror into the oracle.
			i := 0
			for zz := o.start[0]; zz < o.start[0]+o.count[0]; zz++ {
				for yy := o.start[1]; yy < o.start[1]+o.count[1]; yy++ {
					for xx := o.start[2]; xx < o.start[2]+o.count[2]; xx++ {
						oracle[(zz*Y+yy)*X+xx] = o.vals[i]
						i++
					}
				}
			}
		}
		rounds = append(rounds, ops)
	}
	err := mpi.Run(nprocs, mpi.DefaultNet(), func(c *mpi.Comm) error {
		d, err := core.Create(c, fsys, "fuzz.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		z, _ := d.DefDim("z", Z)
		y, _ := d.DefDim("y", Y)
		x, _ := d.DefDim("x", X)
		v, _ := d.DefVar("field", nctype.Double, []int{z, y, x})
		if err := d.EndDef(); err != nil {
			return err
		}
		for _, ops := range rounds {
			o := ops[c.Rank()]
			if err := d.PutVaraAll(v, o.start[:], o.count[:], o.vals); err != nil {
				return err
			}
		}
		return d.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	pf, _, _ := fsys.Open("fuzz.nc", 0)
	sd, err := netcdf.Open(pfs.NewSerialFile(pf, 0), nctype.NoWrite)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, Z*Y*X)
	if err := sd.GetVar(sd.VarID("field"), got); err != nil {
		t.Fatal(err)
	}
	for i := range oracle {
		if got[i] != oracle[i] {
			t.Fatalf("element %d: %v != %v", i, got[i], oracle[i])
		}
	}
}

// TestCDLToParallelPipeline compiles a CDL schema serially, then extends the
// dataset in parallel (appending records), then dumps the structure back.
func TestCDLToParallelPipeline(t *testing.T) {
	fsys := newFS()
	src := `netcdf station {
	dimensions: time = UNLIMITED ; s = 4 ;
	variables:
		float obs(time, s) ;
			obs:units = "degC" ;
	data:
		obs = 1, 2, 3, 4 ;
	}`
	schema, err := cdl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	pf, _ := fsys.Create("station.nc", 0)
	sd, err := netcdf.Create(pfs.NewSerialFile(pf, 0), nctype.Clobber)
	if err != nil {
		t.Fatal(err)
	}
	if err := schema.Build(sd); err != nil {
		t.Fatal(err)
	}
	if err := sd.Close(); err != nil {
		t.Fatal(err)
	}
	// Parallel append of 3 more records.
	err = mpi.Run(4, mpi.DefaultNet(), func(c *mpi.Comm) error {
		d, err := core.Open(c, fsys, "station.nc", nctype.Write, nil)
		if err != nil {
			return err
		}
		if d.NumRecs() != 1 {
			return fmt.Errorf("NumRecs = %d", d.NumRecs())
		}
		for rec := int64(1); rec <= 3; rec++ {
			val := []float32{float32(rec*10 + int64(c.Rank()))}
			if err := d.PutVaraAll(d.VarID("obs"), []int64{rec, int64(c.Rank())}, []int64{1, 1}, val); err != nil {
				return err
			}
		}
		if d.NumRecs() != 4 {
			return fmt.Errorf("NumRecs after append = %d", d.NumRecs())
		}
		return d.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Verify serially.
	pf2, _, _ := fsys.Open("station.nc", 0)
	rd, err := netcdf.Open(pfs.NewSerialFile(pf2, 0), nctype.NoWrite)
	if err != nil {
		t.Fatal(err)
	}
	if rd.NumRecs() != 4 {
		t.Fatalf("final NumRecs = %d", rd.NumRecs())
	}
	all := make([]float32, 16)
	if err := rd.GetVar(rd.VarID("obs"), all); err != nil {
		t.Fatal(err)
	}
	if all[0] != 1 || all[3] != 4 { // CDL record
		t.Fatalf("record 0 = %v", all[:4])
	}
	if all[4+2] != 12 || all[12+3] != 33 { // appended records
		t.Fatalf("appended = %v", all[4:])
	}
}

// retiredHints are keys an older version of the library acted on. They are
// unknown hints now, and the sweeps below keep passing them: hints are
// advisory, so a job script that still sets them runs, resolves to the same
// mpiio.Hints and writes the same file as one that does not.
var retiredHints = [][2]string{{"cb_partition", "balanced"}, {"cb_partition_buckets", "16"}}

// sweepHints builds the hint set of one sweep case and its twin without the
// retired keys.
func sweepHints(hints [][2]string) (info, known *mpi.Info) {
	info, known = mpi.NewInfo(), mpi.NewInfo()
	for _, kv := range hints {
		info.Set(kv[0], kv[1])
		if !slices.ContainsFunc(retiredHints, func(r [2]string) bool { return r[0] == kv[0] }) {
			known.Set(kv[0], kv[1])
		}
	}
	return info, known
}

// resolvedHints is what mpiio makes of info on an nranks communicator.
func resolvedHints(t *testing.T, nranks int, info *mpi.Info) mpiio.Hints {
	t.Helper()
	fsys := newFS()
	var h mpiio.Hints
	err := mpi.Run(nranks, mpi.DefaultNet(), func(c *mpi.Comm) error {
		f, err := mpiio.Open(c, fsys, "hints", mpiio.ModeRdWr|mpiio.ModeCreate, info)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			h = f.Hints()
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestHintSweepConsistency writes the same dataset under many hint
// combinations. Hints tune performance, never semantics: every file reads
// back the same, every file but the one whose header was padded is the same
// byte for byte, the small staging buffer really takes several rounds, and a
// retired hint changes neither the file nor the resolved hint set.
func TestHintSweepConsistency(t *testing.T) {
	const nranks, Z, X = 3, 6, 4096 // 32 KiB rows, two per rank
	sweep := []struct {
		hints      [][2]string
		relaid     bool // the hint moves the data, so only the values compare
		manyRounds bool
	}{
		{},
		{hints: [][2]string{{"romio_cb_write", "disable"}}},
		{hints: [][2]string{{"romio_ds_write", "disable"}, {"romio_cb_write", "disable"}}},
		{hints: [][2]string{{"cb_nodes", "2"}}},
		{hints: [][2]string{{"cb_buffer_size", "8192"}}, manyRounds: true},
		{hints: [][2]string{{"nc_header_align_size", "1024"}}, relaid: true},
		{hints: retiredHints[:1]},
		{hints: retiredHints},
		{hints: [][2]string{retiredHints[0], {"cb_nodes", "2"}, {"cb_buffer_size", "8192"}}, manyRounds: true},
	}
	var reference []float64
	var refImg []byte
	for hi, tc := range sweep {
		info, known := sweepHints(tc.hints)
		if got, want := resolvedHints(t, nranks, info), resolvedHints(t, nranks, known); got != want {
			t.Errorf("hints %d: retired hints changed the resolved set: %+v, want %+v", hi, got, want)
		}
		fsys := newFS()
		var rounds int64
		err := mpi.Run(nranks, mpi.DefaultNet(), func(c *mpi.Comm) error {
			st := iostat.New()
			c.Proc().SetStats(st)
			d, err := core.Create(c, fsys, "h.nc", nctype.Clobber, info)
			if err != nil {
				return err
			}
			z, _ := d.DefDim("z", Z)
			x, _ := d.DefDim("x", X)
			v, _ := d.DefVar("v", nctype.Double, []int{z, x})
			if err := d.EndDef(); err != nil {
				return err
			}
			buf := make([]float64, 2*X)
			for i := range buf {
				buf[i] = float64(c.Rank()*100000 + i)
			}
			if err := d.PutVaraAll(v, []int64{int64(c.Rank() * 2), 0}, []int64{2, X}, buf); err != nil {
				return err
			}
			if c.Rank() == 0 {
				rounds = st.Get(iostat.IOTwoPhaseRounds)
			}
			return d.Close()
		})
		if err != nil {
			t.Fatalf("hints %d: %v", hi, err)
		}
		if tc.manyRounds && rounds <= 1 {
			t.Errorf("hints %d: io_two_phase_rounds = %d, the small staging buffer should take several", hi, rounds)
		}
		img := readPFSFile(t, fsys, "h.nc")
		sd, err := netcdf.Open(&netcdf.MemStore{Data: img}, nctype.NoWrite)
		if err != nil {
			t.Fatalf("hints %d: %v", hi, err)
		}
		got := make([]float64, Z*X)
		if err := sd.GetVar(sd.VarID("v"), got); err != nil {
			t.Fatalf("hints %d: %v", hi, err)
		}
		if reference == nil {
			reference, refImg = got, img
			continue
		}
		for i := range got {
			if got[i] != reference[i] {
				t.Fatalf("hints %d: element %d differs: %v != %v", hi, i, got[i], reference[i])
			}
		}
		if !tc.relaid && !bytes.Equal(img, refImg) {
			t.Errorf("hints %d: the file differs from the default-hint file", hi)
		}
	}
}

// TestManyVariablesManyRanks stresses the header machinery: 150 variables,
// 8 ranks, round-robin writes, serial verification.
func TestManyVariablesManyRanks(t *testing.T) {
	fsys := newFS()
	const nvars = 150
	err := mpi.Run(8, mpi.DefaultNet(), func(c *mpi.Comm) error {
		d, err := core.Create(c, fsys, "many.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		x, _ := d.DefDim("x", 8)
		ids := make([]int, nvars)
		for i := 0; i < nvars; i++ {
			ids[i], err = d.DefVar(fmt.Sprintf("v%03d", i), nctype.Int, []int{x})
			if err != nil {
				return err
			}
		}
		if err := d.EndDef(); err != nil {
			return err
		}
		for i, id := range ids {
			if err := d.PutVaraAll(id, []int64{int64(c.Rank())}, []int64{1},
				[]int32{int32(i*100 + c.Rank())}); err != nil {
				return err
			}
		}
		return d.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	pf, _, _ := fsys.Open("many.nc", 0)
	sd, err := netcdf.Open(pfs.NewSerialFile(pf, 0), nctype.NoWrite)
	if err != nil {
		t.Fatal(err)
	}
	if sd.NumVars() != nvars {
		t.Fatalf("vars = %d", sd.NumVars())
	}
	for _, i := range []int{0, 77, 149} {
		got := make([]int32, 8)
		if err := sd.GetVar(sd.VarID(fmt.Sprintf("v%03d", i)), got); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 8; r++ {
			if got[r] != int32(i*100+r) {
				t.Fatalf("v%03d[%d] = %d", i, r, got[r])
			}
		}
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// TestRandomSchemaCrossLibrary generates random datasets (dims, var ranks,
// types, record or fixed), writes them in parallel, and re-reads everything
// with the serial library.
func TestRandomSchemaCrossLibrary(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	types := []nctype.Type{nctype.Byte, nctype.Short, nctype.Int, nctype.Float, nctype.Double}
	for trial := 0; trial < 8; trial++ {
		fsys := newFS()
		ndims := rng.Intn(3) + 1
		dims := make([]int64, ndims)
		for i := range dims {
			dims[i] = int64(rng.Intn(5) + 1)
		}
		hasRec := rng.Intn(2) == 0
		nvars := rng.Intn(4) + 1
		varTypes := make([]nctype.Type, nvars)
		varRanks := make([]int, nvars)
		varRec := make([]bool, nvars)
		for i := range varTypes {
			varTypes[i] = types[rng.Intn(len(types))]
			varRanks[i] = rng.Intn(ndims + 1)
			varRec[i] = hasRec && rng.Intn(2) == 0
		}
		nrecs := int64(rng.Intn(3) + 1)
		nprocs := rng.Intn(3) + 1

		value := func(vi int, flat int64) int64 { return int64(vi*13+trial)%50 + flat%50 }

		err := mpi.Run(nprocs, mpi.DefaultNet(), func(c *mpi.Comm) error {
			d, err := core.Create(c, fsys, "rs.nc", nctype.Clobber, nil)
			if err != nil {
				return err
			}
			var recDim int
			if hasRec {
				recDim, _ = d.DefDim("rec", 0)
			}
			dimIDs := make([]int, ndims)
			for i := range dims {
				dimIDs[i], err = d.DefDim(fmt.Sprintf("d%d", i), dims[i])
				if err != nil {
					return err
				}
			}
			varIDs := make([]int, nvars)
			for i := range varIDs {
				ids := append([]int(nil), dimIDs[:varRanks[i]]...)
				if varRec[i] {
					ids = append([]int{recDim}, ids...)
				}
				varIDs[i], err = d.DefVar(fmt.Sprintf("v%d", i), varTypes[i], ids)
				if err != nil {
					return err
				}
			}
			if err := d.EndDef(); err != nil {
				return err
			}
			// Rank 0 writes everything (simplest exhaustive coverage);
			// everyone participates collectively with empty shares.
			for vi, v := range varIDs {
				shape, _ := d.VarShape(v)
				if varRec[vi] {
					shape[0] = nrecs
				}
				n := int64(1)
				for _, s := range shape {
					n *= s
				}
				start := make([]int64, len(shape))
				count := append([]int64(nil), shape...)
				buf := make([]int32, n)
				for j := range buf {
					buf[j] = int32(value(vi, int64(j)))
				}
				// Rank 0 writes; others pass empty shares — except for pure
				// scalars, which every rank writes identically (a scalar has
				// no dimension to zero out).
				if c.Rank() != 0 && len(count) > 0 {
					for i := range count {
						count[i] = 0
					}
					buf = nil
				}
				if err := d.PutVaraAll(v, start, count, buf); err != nil {
					return fmt.Errorf("trial %d var %d (type %v rank %d rec %v): %w",
						trial, vi, varTypes[vi], varRanks[vi], varRec[vi], err)
				}
			}
			return d.Close()
		})
		if err != nil {
			t.Fatal(err)
		}
		// Serial verification of every element of every variable.
		pf, _, _ := fsys.Open("rs.nc", 0)
		sd, err := netcdf.Open(pfs.NewSerialFile(pf, 0), nctype.NoWrite)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for vi := 0; vi < nvars; vi++ {
			id := sd.VarID(fmt.Sprintf("v%d", vi))
			shape, _ := sd.VarShape(id)
			n := int64(1)
			for _, s := range shape {
				n *= s
			}
			if n == 0 {
				continue
			}
			got := make([]int32, n)
			if err := sd.GetVar(id, got); err != nil {
				t.Fatalf("trial %d var %d: %v", trial, vi, err)
			}
			for j := range got {
				if got[j] != int32(value(vi, int64(j))) {
					t.Fatalf("trial %d var %d elem %d = %d, want %d",
						trial, vi, j, got[j], value(vi, int64(j)))
				}
			}
		}
	}
}
