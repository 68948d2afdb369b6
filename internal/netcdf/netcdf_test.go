package netcdf

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pnetcdf/internal/cdf"
	"pnetcdf/internal/nctype"
)

// newDataset builds the standard test dataset:
//
//	dims: time(unlimited), lat=4, lon=6
//	vars: double temp(time,lat,lon); int elevation(lat,lon)
//	atts: :title = "test"; temp:units = "K"
func newDataset(t *testing.T, opts ...Option) (*Dataset, *MemStore, int, int) {
	t.Helper()
	store := &MemStore{}
	d, err := Create(store, nctype.Clobber, opts...)
	if err != nil {
		t.Fatal(err)
	}
	timeID, err := d.DefDim("time", 0)
	if err != nil {
		t.Fatal(err)
	}
	latID, _ := d.DefDim("lat", 4)
	lonID, _ := d.DefDim("lon", 6)
	tempID, err := d.DefVar("temp", nctype.Double, []int{timeID, latID, lonID})
	if err != nil {
		t.Fatal(err)
	}
	elevID, err := d.DefVar("elevation", nctype.Int, []int{latID, lonID})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PutAttr(GlobalID, "title", nctype.Char, "test"); err != nil {
		t.Fatal(err)
	}
	if err := d.PutAttr(tempID, "units", nctype.Char, "K"); err != nil {
		t.Fatal(err)
	}
	if err := d.EndDef(); err != nil {
		t.Fatal(err)
	}
	return d, store, tempID, elevID
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	d, store, tempID, elevID := newDataset(t)
	elev := make([]int32, 24)
	for i := range elev {
		elev[i] = int32(i * 10)
	}
	if err := d.PutVar(elevID, elev); err != nil {
		t.Fatal(err)
	}
	temp := make([]float64, 2*24)
	for i := range temp {
		temp[i] = float64(i) + 0.5
	}
	if err := d.PutVara(tempID, []int64{0, 0, 0}, []int64{2, 4, 6}, temp); err != nil {
		t.Fatal(err)
	}
	if d.NumRecs() != 2 {
		t.Fatalf("NumRecs = %d", d.NumRecs())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen from the bytes and verify everything.
	r, err := Open(store, nctype.NoWrite)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumDims() != 3 || r.NumVars() != 2 || r.NumRecs() != 2 {
		t.Fatalf("reopened: dims=%d vars=%d recs=%d", r.NumDims(), r.NumVars(), r.NumRecs())
	}
	name, l, err := r.InqDim(r.DimID("lat"))
	if err != nil || name != "lat" || l != 4 {
		t.Fatalf("InqDim: %s %d %v", name, l, err)
	}
	vn, vt, dims, err := r.InqVar(r.VarID("temp"))
	if err != nil || vn != "temp" || vt != nctype.Double || len(dims) != 3 {
		t.Fatalf("InqVar: %s %v %v %v", vn, vt, dims, err)
	}
	at, av, err := r.GetAttr(GlobalID, "title")
	if err != nil || at != nctype.Char || string(av.([]byte)) != "test" {
		t.Fatalf("global att: %v %v %v", at, av, err)
	}
	_, av, err = r.GetAttr(r.VarID("temp"), "units")
	if err != nil || string(av.([]byte)) != "K" {
		t.Fatalf("var att: %v %v", av, err)
	}
	gotElev := make([]int32, 24)
	if err := r.GetVar(r.VarID("elevation"), gotElev); err != nil {
		t.Fatal(err)
	}
	for i := range elev {
		if gotElev[i] != elev[i] {
			t.Fatalf("elevation[%d] = %d", i, gotElev[i])
		}
	}
	gotTemp := make([]float64, 48)
	if err := r.GetVara(r.VarID("temp"), []int64{0, 0, 0}, []int64{2, 4, 6}, gotTemp); err != nil {
		t.Fatal(err)
	}
	for i := range temp {
		if gotTemp[i] != temp[i] {
			t.Fatalf("temp[%d] = %v", i, gotTemp[i])
		}
	}
}

func TestFileIsGenuineClassicFormat(t *testing.T) {
	d, store, _, _ := newDataset(t)
	if err := d.Sync(); err != nil { // flush the page cache to the store
		t.Fatal(err)
	}
	if string(store.Data[:3]) != "CDF" || store.Data[3] != 1 {
		t.Fatalf("magic = % x", store.Data[:4])
	}
	h, err := cdf.Decode(store.Data)
	if err != nil {
		t.Fatalf("independent header decode: %v", err)
	}
	if h.FindVar("temp") < 0 || h.FindDim("lon") < 0 {
		t.Fatal("decoded header missing objects")
	}
}

func TestSubarrayStridedMapped(t *testing.T) {
	d, _, _, elevID := newDataset(t)
	full := make([]int32, 24)
	for i := range full {
		full[i] = int32(i)
	}
	if err := d.PutVar(elevID, full); err != nil {
		t.Fatal(err)
	}
	// Subarray rows 1..2, cols 2..4.
	sub := make([]int32, 2*3)
	if err := d.GetVara(elevID, []int64{1, 2}, []int64{2, 3}, sub); err != nil {
		t.Fatal(err)
	}
	want := []int32{8, 9, 10, 14, 15, 16}
	for i := range want {
		if sub[i] != want[i] {
			t.Fatalf("vara = %v, want %v", sub, want)
		}
	}
	// Strided: every other column of row 0.
	str := make([]int32, 3)
	if err := d.GetVars(elevID, []int64{0, 0}, []int64{1, 3}, []int64{1, 2}, str); err != nil {
		t.Fatal(err)
	}
	if str[0] != 0 || str[1] != 2 || str[2] != 4 {
		t.Fatalf("vars = %v", str)
	}
	// Mapped: transpose a 2x2 corner into memory (column-major).
	mapd := make([]int32, 4)
	if err := d.GetVarm(elevID, []int64{0, 0}, []int64{2, 2}, nil, []int64{1, 2}, mapd); err != nil {
		t.Fatal(err)
	}
	// File order 0,1,6,7 -> memory positions 0,2,1,3.
	if mapd[0] != 0 || mapd[2] != 1 || mapd[1] != 6 || mapd[3] != 7 {
		t.Fatalf("varm = %v", mapd)
	}
	// PutVarm round trip: write transposed, read natural.
	if err := d.PutVarm(elevID, []int64{2, 0}, []int64{2, 2}, nil, []int64{1, 2}, []int32{100, 102, 101, 103}); err != nil {
		t.Fatal(err)
	}
	back := make([]int32, 4)
	if err := d.GetVara(elevID, []int64{2, 0}, []int64{2, 2}, back); err != nil {
		t.Fatal(err)
	}
	if back[0] != 100 || back[1] != 101 || back[2] != 102 || back[3] != 103 {
		t.Fatalf("putvarm round trip = %v", back)
	}
}

func TestVar1(t *testing.T) {
	d, _, tempID, elevID := newDataset(t)
	if err := d.PutVar1(elevID, []int64{3, 5}, []int32{777}); err != nil {
		t.Fatal(err)
	}
	got := make([]int32, 1)
	if err := d.GetVar1(elevID, []int64{3, 5}, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 777 {
		t.Fatalf("var1 = %d", got[0])
	}
	// Record var element write extends records.
	if err := d.PutVar1(tempID, []int64{4, 0, 0}, []float64{1.25}); err != nil {
		t.Fatal(err)
	}
	if d.NumRecs() != 5 {
		t.Fatalf("NumRecs = %d", d.NumRecs())
	}
}

func TestTypeConversionOnPutGet(t *testing.T) {
	d, _, _, elevID := newDataset(t)
	// Put float64 into int variable (truncation), read back as float32.
	if err := d.PutVara(elevID, []int64{0, 0}, []int64{1, 3}, []float64{1.9, -2.9, 3.5}); err != nil {
		t.Fatal(err)
	}
	got := make([]float32, 3)
	if err := d.GetVara(elevID, []int64{0, 0}, []int64{1, 3}, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != -2 || got[2] != 3 {
		t.Fatalf("converted = %v", got)
	}
	// Out-of-range put reports ErrRange but stores the wrapped value.
	err := d.PutVara(elevID, []int64{0, 0}, []int64{1, 1}, []int64{1 << 40})
	if !errors.Is(err, cdf.ErrRange) {
		t.Fatalf("range error: %v", err)
	}
}

func TestRecordGrowthAndInterleaving(t *testing.T) {
	store := &MemStore{}
	d, _ := Create(store, nctype.Clobber)
	tdim, _ := d.DefDim("t", 0)
	xdim, _ := d.DefDim("x", 3)
	a, _ := d.DefVar("a", nctype.Int, []int{tdim, xdim})
	b, _ := d.DefVar("b", nctype.Int, []int{tdim, xdim})
	if err := d.EndDef(); err != nil {
		t.Fatal(err)
	}
	for rec := int64(0); rec < 4; rec++ {
		av := []int32{int32(rec * 10), int32(rec*10 + 1), int32(rec*10 + 2)}
		bv := []int32{int32(rec * 100), int32(rec*100 + 1), int32(rec*100 + 2)}
		if err := d.PutVara(a, []int64{rec, 0}, []int64{1, 3}, av); err != nil {
			t.Fatal(err)
		}
		if err := d.PutVara(b, []int64{rec, 0}, []int64{1, 3}, bv); err != nil {
			t.Fatal(err)
		}
	}
	if d.NumRecs() != 4 {
		t.Fatalf("NumRecs = %d", d.NumRecs())
	}
	// Read a strided record selection from each.
	got := make([]int32, 2*3)
	if err := d.GetVars(a, []int64{0, 0}, []int64{2, 3}, []int64{2, 1}, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[3] != 20 {
		t.Fatalf("strided records = %v", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// The interleaving on disk: record 0 of a, record 0 of b, record 1 of a...
	h, err := cdf.Decode(store.Data)
	if err != nil {
		t.Fatal(err)
	}
	va, vb := &h.Vars[0], &h.Vars[1]
	if vb.Begin != va.Begin+va.VSize {
		t.Fatalf("record slots not interleaved: a@%d+%d, b@%d", va.Begin, va.VSize, vb.Begin)
	}
	if h.RecSize() != va.VSize+vb.VSize {
		t.Fatalf("RecSize = %d", h.RecSize())
	}
}

func TestFillMode(t *testing.T) {
	store := &MemStore{}
	d, _ := Create(store, nctype.Clobber, WithFill())
	tdim, _ := d.DefDim("t", 0)
	xdim, _ := d.DefDim("x", 4)
	fixed, _ := d.DefVar("fixed", nctype.Int, []int{xdim})
	rec, _ := d.DefVar("rec", nctype.Float, []int{tdim, xdim})
	if err := d.EndDef(); err != nil {
		t.Fatal(err)
	}
	// Fixed var is pre-filled.
	got := make([]int32, 4)
	if err := d.GetVar(fixed, got); err != nil {
		t.Fatal(err)
	}
	for _, v := range got {
		if v != nctype.FillInt {
			t.Fatalf("fixed fill = %v", got)
		}
	}
	// Writing record 2 fills records 0 and 1.
	if err := d.PutVara(rec, []int64{2, 0}, []int64{1, 4}, []float32{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	f := make([]float32, 4)
	if err := d.GetVara(rec, []int64{0, 0}, []int64{1, 4}, f); err != nil {
		t.Fatal(err)
	}
	for _, v := range f {
		if v != nctype.FillFloat {
			t.Fatalf("record fill = %v", f)
		}
	}
}

func TestCustomFillValue(t *testing.T) {
	store := &MemStore{}
	d, _ := Create(store, nctype.Clobber, WithFill())
	xdim, _ := d.DefDim("x", 3)
	v, _ := d.DefVar("v", nctype.Int, []int{xdim})
	if err := d.PutAttr(v, "_FillValue", nctype.Int, []int32{-999}); err != nil {
		t.Fatal(err)
	}
	if err := d.EndDef(); err != nil {
		t.Fatal(err)
	}
	got := make([]int32, 3)
	if err := d.GetVar(v, got); err != nil {
		t.Fatal(err)
	}
	for _, x := range got {
		if x != -999 {
			t.Fatalf("custom fill = %v", got)
		}
	}
}

func TestRedefGrowsHeaderAndRelocates(t *testing.T) {
	d, store, tempID, elevID := newDataset(t)
	elev := make([]int32, 24)
	for i := range elev {
		elev[i] = int32(i + 1)
	}
	if err := d.PutVar(elevID, elev); err != nil {
		t.Fatal(err)
	}
	temp := make([]float64, 24)
	for i := range temp {
		temp[i] = float64(i) * 1.5
	}
	if err := d.PutVara(tempID, []int64{0, 0, 0}, []int64{1, 4, 6}, temp); err != nil {
		t.Fatal(err)
	}
	// Re-enter define mode and add attributes, a dimension, and a variable:
	// the header grows, so all data must move.
	if err := d.Redef(); err != nil {
		t.Fatal(err)
	}
	if err := d.PutAttr(GlobalID, "history", nctype.Char,
		"a long attribute string to force the header to grow well past its old size ........................"); err != nil {
		t.Fatal(err)
	}
	zdim, err := d.DefDim("z", 2)
	if err != nil {
		t.Fatal(err)
	}
	newID, err := d.DefVar("pressure", nctype.Float, []int{zdim})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.EndDef(); err != nil {
		t.Fatal(err)
	}
	// Old data must have survived the move.
	gotElev := make([]int32, 24)
	if err := d.GetVar(elevID, gotElev); err != nil {
		t.Fatal(err)
	}
	for i := range elev {
		if gotElev[i] != elev[i] {
			t.Fatalf("elevation lost after redef: [%d]=%d", i, gotElev[i])
		}
	}
	gotTemp := make([]float64, 24)
	if err := d.GetVara(tempID, []int64{0, 0, 0}, []int64{1, 4, 6}, gotTemp); err != nil {
		t.Fatal(err)
	}
	for i := range temp {
		if gotTemp[i] != temp[i] {
			t.Fatalf("temp lost after redef: [%d]=%v", i, gotTemp[i])
		}
	}
	if err := d.PutVar(newID, []float32{9, 8}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Still a valid file.
	r, err := Open(store, nctype.NoWrite)
	if err != nil {
		t.Fatal(err)
	}
	if r.VarID("pressure") < 0 {
		t.Fatal("new variable missing after reopen")
	}
}

func TestModeErrors(t *testing.T) {
	d, store, tempID, elevID := newDataset(t)
	// Define-mode ops in data mode.
	if _, err := d.DefDim("nope", 5); !errors.Is(err, nctype.ErrNotInDefine) {
		t.Fatalf("DefDim in data mode: %v", err)
	}
	if _, err := d.DefVar("nope", nctype.Int, nil); !errors.Is(err, nctype.ErrNotInDefine) {
		t.Fatalf("DefVar in data mode: %v", err)
	}
	// Data ops in define mode.
	d.Redef()
	if err := d.PutVar1(elevID, []int64{0, 0}, []int32{1}); !errors.Is(err, nctype.ErrInDefine) {
		t.Fatalf("put in define mode: %v", err)
	}
	d.EndDef()
	// Bounds.
	if err := d.PutVara(elevID, []int64{0, 0}, []int64{5, 6}, make([]int32, 30)); !errors.Is(err, nctype.ErrEdge) {
		t.Fatalf("over-edge put: %v", err)
	}
	if err := d.GetVara(tempID, []int64{0, 0, 0}, []int64{1, 4, 6}, make([]float64, 24)); !errors.Is(err, nctype.ErrEdge) {
		t.Fatalf("read of record 0 with 0 records: %v", err)
	}
	// Buffer too small.
	if err := d.PutVar(elevID, make([]int32, 5)); !errors.Is(err, nctype.ErrCountMismatch) {
		t.Fatalf("short buffer: %v", err)
	}
	// Unknown ids.
	if err := d.PutVar(99, []int32{1}); !errors.Is(err, nctype.ErrNotVar) {
		t.Fatalf("bad varid: %v", err)
	}
	if _, _, err := d.InqDim(99); !errors.Is(err, nctype.ErrNotDim) {
		t.Fatalf("bad dimid: %v", err)
	}
	if _, _, err := d.GetAttr(GlobalID, "absent"); !errors.Is(err, nctype.ErrNotAtt) {
		t.Fatalf("absent att: %v", err)
	}
	d.Close()
	// Read-only enforcement.
	r, _ := Open(store, nctype.NoWrite)
	if err := r.PutVar1(0, []int64{0, 0, 0}, []float64{1}); !errors.Is(err, nctype.ErrPerm) {
		t.Fatalf("write to read-only: %v", err)
	}
	if err := r.Redef(); !errors.Is(err, nctype.ErrPerm) {
		t.Fatalf("redef read-only: %v", err)
	}
	r.Close()
	if err := r.Sync(); !errors.Is(err, nctype.ErrClosed) {
		t.Fatalf("sync closed: %v", err)
	}
}

func TestDefineValidation(t *testing.T) {
	store := &MemStore{}
	d, _ := Create(store, nctype.Clobber)
	tdim, _ := d.DefDim("t", 0)
	if _, err := d.DefDim("t", 5); !errors.Is(err, nctype.ErrNameInUse) {
		t.Fatalf("dup dim: %v", err)
	}
	if _, err := d.DefDim("u", 0); !errors.Is(err, nctype.ErrMultiUnlimited) {
		t.Fatalf("second unlimited: %v", err)
	}
	if _, err := d.DefDim("neg", -1); !errors.Is(err, nctype.ErrBadDim) {
		t.Fatalf("negative dim: %v", err)
	}
	if _, err := d.DefDim("bad/name", 1); err == nil {
		t.Fatal("slash in name accepted")
	}
	xdim, _ := d.DefDim("x", 2)
	if _, err := d.DefVar("v", nctype.Int, []int{xdim, tdim}); !errors.Is(err, nctype.ErrUnlimPos) {
		t.Fatalf("record dim not first: %v", err)
	}
	if _, err := d.DefVar("v", nctype.Int, []int{99}); !errors.Is(err, nctype.ErrBadDim) {
		t.Fatalf("bad dimid: %v", err)
	}
	if _, err := d.DefVar("v", nctype.UInt64, []int{xdim}); !errors.Is(err, nctype.ErrBadType) {
		t.Fatalf("CDF-5 type in CDF-1: %v", err)
	}
}

func TestCDF2AndCDF5(t *testing.T) {
	for _, mode := range []int{nctype.Bit64Offset, nctype.Bit64Data} {
		store := &MemStore{}
		d, err := Create(store, mode)
		if err != nil {
			t.Fatal(err)
		}
		x, _ := d.DefDim("x", 10)
		vt := nctype.Int
		if mode == nctype.Bit64Data {
			vt = nctype.Int64 // extended type only valid in CDF-5
		}
		v, err := d.DefVar("v", vt, []int{x})
		if err != nil {
			t.Fatal(err)
		}
		d.EndDef()
		if vt == nctype.Int64 {
			if err := d.PutVar(v, []int64{1 << 40, 2, 3, 4, 5, 6, 7, 8, 9, 10}); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := d.PutVar(v, make([]int32, 10)); err != nil {
				t.Fatal(err)
			}
		}
		d.Close()
		wantVer := byte(2)
		if mode == nctype.Bit64Data {
			wantVer = 5
		}
		if store.Data[3] != wantVer {
			t.Fatalf("version byte = %d, want %d", store.Data[3], wantVer)
		}
		r, err := Open(store, nctype.NoWrite)
		if err != nil {
			t.Fatal(err)
		}
		if vt == nctype.Int64 {
			got := make([]int64, 10)
			if err := r.GetVar(r.VarID("v"), got); err != nil {
				t.Fatal(err)
			}
			if got[0] != 1<<40 {
				t.Fatalf("CDF-5 int64 = %d", got[0])
			}
		}
	}
}

func TestAttrLifecycle(t *testing.T) {
	d, _, tempID, _ := newDataset(t)
	d.Redef()
	if err := d.PutAttr(tempID, "valid_range", nctype.Double, []float64{-50, 50}); err != nil {
		t.Fatal(err)
	}
	names, _ := d.AttrNames(tempID)
	if len(names) != 2 || names[1] != "valid_range" {
		t.Fatalf("AttrNames = %v", names)
	}
	// Overwrite.
	if err := d.PutAttr(tempID, "units", nctype.Char, "C"); err != nil {
		t.Fatal(err)
	}
	if err := d.DelAttr(tempID, "valid_range"); err != nil {
		t.Fatal(err)
	}
	if err := d.DelAttr(tempID, "valid_range"); !errors.Is(err, nctype.ErrNotAtt) {
		t.Fatalf("double delete: %v", err)
	}
	d.EndDef()
	// In data mode: same-size overwrite OK, larger rejected.
	if err := d.PutAttr(tempID, "units", nctype.Char, "F"); err != nil {
		t.Fatal(err)
	}
	if err := d.PutAttr(tempID, "units", nctype.Char, "Fahrenheit"); !errors.Is(err, nctype.ErrNotInDefine) {
		t.Fatalf("grow att in data mode: %v", err)
	}
	_, v, _ := d.GetAttr(tempID, "units")
	if string(v.([]byte)) != "F" {
		t.Fatalf("units = %q", v)
	}
}

func TestNumericAttrTypes(t *testing.T) {
	d, _, _, _ := newDataset(t)
	d.Redef()
	cases := []struct {
		name string
		t    nctype.Type
		val  any
	}{
		{"b", nctype.Byte, []int8{-1, 2}},
		{"s", nctype.Short, []int16{300}},
		{"i", nctype.Int, []int32{1 << 20}},
		{"f", nctype.Float, []float32{2.5}},
		{"d", nctype.Double, []float64{1e-300}},
		{"scalar", nctype.Int, 42},
	}
	for _, c := range cases {
		if err := d.PutAttr(GlobalID, c.name, c.t, c.val); err != nil {
			t.Fatalf("PutAttr %s: %v", c.name, err)
		}
	}
	d.EndDef()
	_, v, err := d.GetAttr(GlobalID, "d")
	if err != nil || v.([]float64)[0] != 1e-300 {
		t.Fatalf("double att: %v %v", v, err)
	}
	_, v, _ = d.GetAttr(GlobalID, "scalar")
	if v.([]int32)[0] != 42 {
		t.Fatalf("scalar att: %v", v)
	}
}

func TestOSStoreBackend(t *testing.T) {
	path := t.TempDir() + "/real.nc"
	f, err := createOSFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Create(OSStore{F: f}, nctype.Clobber)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := d.DefDim("x", 5)
	v, _ := d.DefVar("v", nctype.Short, []int{x})
	d.EndDef()
	if err := d.PutVar(v, []int16{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := openOSFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(OSStore{F: g}, nctype.NoWrite)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int16, 5)
	if err := r.GetVar(r.VarID("v"), got); err != nil {
		t.Fatal(err)
	}
	if got[4] != 5 {
		t.Fatalf("os round trip = %v", got)
	}
	r.Close()
}

func TestLargeHeaderOpen(t *testing.T) {
	// A header larger than the initial 64 KiB probe must still open.
	store := &MemStore{}
	d, _ := Create(store, nctype.Clobber)
	x, _ := d.DefDim("x", 1)
	for i := 0; i < 3000; i++ {
		name := "var_with_a_rather_long_name_to_inflate_the_header_" + itoa(i)
		if _, err := d.DefVar(name, nctype.Double, []int{x}); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()
	if int64(len(store.Data)) < 128<<10 {
		t.Skip("header unexpectedly small")
	}
	r, err := Open(store, nctype.NoWrite)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumVars() != 3000 {
		t.Fatalf("NumVars = %d", r.NumVars())
	}
}

func TestRandomizedAgainstOracle(t *testing.T) {
	// Write random subarrays into a 3-D variable and mirror them in a plain
	// Go array; reads must always agree.
	store := &MemStore{}
	d, _ := Create(store, nctype.Clobber)
	z, _ := d.DefDim("z", 5)
	y, _ := d.DefDim("y", 7)
	x, _ := d.DefDim("x", 11)
	v, _ := d.DefVar("v", nctype.Float, []int{z, y, x})
	d.EndDef()
	oracle := make([]float32, 5*7*11)
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 100; iter++ {
		start := []int64{rng.Int63n(5), rng.Int63n(7), rng.Int63n(11)}
		count := []int64{
			rng.Int63n(5-start[0]) + 1,
			rng.Int63n(7-start[1]) + 1,
			rng.Int63n(11-start[2]) + 1,
		}
		n := count[0] * count[1] * count[2]
		if rng.Intn(2) == 0 {
			buf := make([]float32, n)
			for i := range buf {
				buf[i] = rng.Float32()
			}
			if err := d.PutVara(v, start, count, buf); err != nil {
				t.Fatal(err)
			}
			i := 0
			for a := start[0]; a < start[0]+count[0]; a++ {
				for b := start[1]; b < start[1]+count[1]; b++ {
					for c := start[2]; c < start[2]+count[2]; c++ {
						oracle[a*77+b*11+c] = buf[i]
						i++
					}
				}
			}
		} else {
			buf := make([]float32, n)
			if err := d.GetVara(v, start, count, buf); err != nil {
				t.Fatal(err)
			}
			i := 0
			for a := start[0]; a < start[0]+count[0]; a++ {
				for b := start[1]; b < start[1]+count[1]; b++ {
					for c := start[2]; c < start[2]+count[2]; c++ {
						if buf[i] != oracle[a*77+b*11+c] {
							t.Fatalf("iter %d: mismatch at (%d,%d,%d)", iter, a, b, c)
						}
						i++
					}
				}
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// TestConversionMatrix drives every (external type, memory type) pair the
// library supports through a put/get cycle with small in-range values.
func TestConversionMatrix(t *testing.T) {
	exts := []nctype.Type{
		nctype.Byte, nctype.Short, nctype.Int, nctype.Float, nctype.Double,
	}
	memFactories := map[string]func(vals []int64) any{
		"int8": func(v []int64) any {
			out := make([]int8, len(v))
			for i := range v {
				out[i] = int8(v[i])
			}
			return out
		},
		"int16": func(v []int64) any {
			out := make([]int16, len(v))
			for i := range v {
				out[i] = int16(v[i])
			}
			return out
		},
		"int32": func(v []int64) any {
			out := make([]int32, len(v))
			for i := range v {
				out[i] = int32(v[i])
			}
			return out
		},
		"int64": func(v []int64) any { out := make([]int64, len(v)); copy(out, v); return out },
		"uint16": func(v []int64) any {
			out := make([]uint16, len(v))
			for i := range v {
				out[i] = uint16(v[i])
			}
			return out
		},
		"uint32": func(v []int64) any {
			out := make([]uint32, len(v))
			for i := range v {
				out[i] = uint32(v[i])
			}
			return out
		},
		"float32": func(v []int64) any {
			out := make([]float32, len(v))
			for i := range v {
				out[i] = float32(v[i])
			}
			return out
		},
		"float64": func(v []int64) any {
			out := make([]float64, len(v))
			for i := range v {
				out[i] = float64(v[i])
			}
			return out
		},
	}
	vals := []int64{0, 1, 42, 100, 127} // in range for every type above
	for _, ext := range exts {
		for memName, mk := range memFactories {
			store := &MemStore{}
			d, _ := Create(store, nctype.Clobber)
			x, _ := d.DefDim("x", int64(len(vals)))
			v, err := d.DefVar("v", ext, []int{x})
			if err != nil {
				t.Fatal(err)
			}
			d.EndDef()
			if err := d.PutVar(v, mk(vals)); err != nil {
				t.Fatalf("%v <- %s: put: %v", ext, memName, err)
			}
			// Read back as int64 (lossless for these values).
			got := make([]int64, len(vals))
			if err := d.GetVar(v, got); err != nil {
				t.Fatalf("%v -> int64 (wrote %s): get: %v", ext, memName, err)
			}
			for i := range vals {
				if got[i] != vals[i] {
					t.Fatalf("%v via %s: [%d] = %d, want %d", ext, memName, i, got[i], vals[i])
				}
			}
		}
	}
}

func TestAbortDiscardsNothingWritten(t *testing.T) {
	store := &MemStore{}
	d, _ := Create(store, nctype.Clobber)
	d.DefDim("x", 4)
	if err := d.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := d.Abort(); err != nil {
		t.Fatalf("double abort not idempotent: %v", err)
	}
	// Nothing flushed: the store must not contain a valid header.
	if len(store.Data) != 0 {
		if _, err := cdf.Decode(store.Data); err == nil {
			t.Fatal("abort flushed a header")
		}
	}
}

func TestNumRecsPersistedOnSync(t *testing.T) {
	store := &MemStore{}
	d, _ := Create(store, nctype.Clobber)
	tdim, _ := d.DefDim("t", 0)
	x, _ := d.DefDim("x", 2)
	v, _ := d.DefVar("v", nctype.Int, []int{tdim, x})
	d.EndDef()
	for rec := int64(0); rec < 3; rec++ {
		if err := d.PutVara(v, []int64{rec, 0}, []int64{1, 2}, []int32{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(store, nctype.NoWrite)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRecs() != 3 {
		t.Fatalf("persisted NumRecs = %d", r.NumRecs())
	}
}

// TestSyncDoesNotGrowFile: every Sync recommits the header through a journal
// parked at the end of the file, and takes the journal off again — the store
// is as long after the fifth Sync as after the first.
func TestSyncDoesNotGrowFile(t *testing.T) {
	d, store, tempID, _ := newDataset(t)
	if err := d.PutVara(tempID, []int64{0, 0, 0}, []int64{1, 4, 6}, make([]float64, 24)); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	size := len(store.Data)
	for i := 0; i < 4; i++ {
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if len(store.Data) != size || cdf.RecoverJournal(store.Data) != nil {
		t.Fatalf("store grew from %d to %d bytes over four Syncs (journal at its tail: %v)",
			size, len(store.Data), cdf.RecoverJournal(store.Data) != nil)
	}
}

// TestRedefShrinksHeaderAndRelocates: deleting an attribute moves every
// variable toward the front of the file, onto the tail of its predecessor's
// old place; the data must arrive whole (cdf.RelocationPlan runs such moves
// front to back).
func TestRedefShrinksHeaderAndRelocates(t *testing.T) {
	store := &MemStore{}
	d, err := Create(store, nctype.Clobber)
	if err != nil {
		t.Fatal(err)
	}
	tdim, _ := d.DefDim("t", 0)
	x, _ := d.DefDim("x", 300)
	a, _ := d.DefVar("a", nctype.Int, []int{x})
	b, _ := d.DefVar("b", nctype.Int, []int{x})
	r, _ := d.DefVar("r", nctype.Int, []int{tdim, x})
	if err := d.PutAttr(GlobalID, "scratch", nctype.Char, strings.Repeat("z", 500)); err != nil {
		t.Fatal(err)
	}
	if err := d.EndDef(); err != nil {
		t.Fatal(err)
	}
	ramp := func(base int32) []int32 {
		v := make([]int32, 300)
		for i := range v {
			v[i] = base + int32(i)
		}
		return v
	}
	d.PutVar(a, ramp(1000))
	d.PutVar(b, ramp(2000))
	for rec := int64(0); rec < 3; rec++ {
		if err := d.PutVara(r, []int64{rec, 0}, []int64{1, 300}, ramp(int32(3000+1000*rec))); err != nil {
			t.Fatal(err)
		}
	}
	before := d.Hdr.Vars[a].Begin
	if err := d.Redef(); err != nil {
		t.Fatal(err)
	}
	if err := d.DelAttr(GlobalID, "scratch"); err != nil {
		t.Fatal(err)
	}
	if err := d.RenameVar(b, "b_renamed"); err != nil {
		t.Fatal(err)
	}
	if err := d.EndDef(); err != nil {
		t.Fatal(err)
	}
	if after := d.Hdr.Vars[a].Begin; after >= before {
		t.Fatalf("a begins at %d after the header shrank, %d before: nothing moved back", after, before)
	}
	check := func(what string, got []int32, base int32) {
		t.Helper()
		for i, g := range got {
			if g != base+int32(i) {
				t.Fatalf("%s[%d] = %d after the move, want %d", what, i, g, base+int32(i))
			}
		}
	}
	got := make([]int32, 300)
	d.GetVar(a, got)
	check("a", got, 1000)
	d.GetVar(b, got)
	check("b_renamed", got, 2000)
	for rec := int64(0); rec < 3; rec++ {
		if err := d.GetVara(r, []int64{rec, 0}, []int64{1, 300}, got); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("r[%d]", rec), got, int32(3000+1000*rec))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPutVarsOnRecordVariableGrows(t *testing.T) {
	d, _, tempID, _ := newDataset(t)
	// Write records 0, 2, 4 with one strided put (grows to 5 records).
	buf := make([]float64, 3*4*6)
	for i := range buf {
		buf[i] = float64(i)
	}
	if err := d.PutVars(tempID, []int64{0, 0, 0}, []int64{3, 4, 6}, []int64{2, 1, 1}, buf); err != nil {
		t.Fatal(err)
	}
	if d.NumRecs() != 5 {
		t.Fatalf("NumRecs = %d", d.NumRecs())
	}
	// Record 2 starts at buffer offset 24.
	one := make([]float64, 1)
	if err := d.GetVar1(tempID, []int64{2, 0, 0}, one); err != nil {
		t.Fatal(err)
	}
	if one[0] != 24 {
		t.Fatalf("record 2 first = %v", one[0])
	}
	// Records 1 and 3 were skipped (nofill: zero from sparse storage).
	if err := d.GetVar1(tempID, []int64{1, 0, 0}, one); err != nil {
		t.Fatal(err)
	}
	if one[0] != 0 {
		t.Fatalf("skipped record = %v", one[0])
	}
}

func TestGetVarWholeRecordVariable(t *testing.T) {
	d, _, tempID, _ := newDataset(t)
	n := 2 * 4 * 6
	buf := make([]float64, n)
	for i := range buf {
		buf[i] = float64(i) * 2
	}
	// PutVar on a fresh record variable infers the record count from the
	// buffer length.
	if err := d.PutVar(tempID, buf); err != nil {
		t.Fatal(err)
	}
	if d.NumRecs() != 2 {
		t.Fatalf("NumRecs = %d", d.NumRecs())
	}
	got := make([]float64, n)
	if err := d.GetVar(tempID, got); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		if got[i] != buf[i] {
			t.Fatalf("[%d] = %v", i, got[i])
		}
	}
}

func TestBufferPlumbingAllTypes(t *testing.T) {
	// MakeLike and SliceHead must support every memory type.
	bufs := []any{
		[]int8{1, 2, 3}, []int16{1, 2, 3}, []int32{1, 2, 3}, []int64{1, 2, 3},
		[]uint8{1, 2, 3}, []uint16{1, 2, 3}, []uint32{1, 2, 3}, []uint64{1, 2, 3},
		[]float32{1, 2, 3}, []float64{1, 2, 3},
	}
	for _, b := range bufs {
		m, err := MakeLike(b, 2)
		if err != nil {
			t.Fatalf("MakeLike(%T): %v", b, err)
		}
		if fmt.Sprintf("%T", m) != fmt.Sprintf("%T", b) || cdf.SliceLen(m) != 2 {
			t.Fatalf("MakeLike(%T) made a %T of %d", b, m, cdf.SliceLen(m))
		}
		h, err := SliceHead(b, 2)
		if err != nil {
			t.Fatalf("SliceHead(%T): %v", b, err)
		}
		if fmt.Sprintf("%T", h) != fmt.Sprintf("%T", b) || cdf.SliceLen(h) != 2 {
			t.Fatalf("SliceHead(%T) gave a %T of %d", b, h, cdf.SliceLen(h))
		}
		if _, err := SliceHead(b, 4); !errors.Is(err, nctype.ErrCountMismatch) {
			t.Fatalf("SliceHead(%T) past its end: %v", b, err)
		}
	}
	if _, err := MakeLike(struct{}{}, 1); err == nil {
		t.Fatal("MakeLike accepted unsupported type")
	}
	if _, err := SliceHead(struct{}{}, 0); err == nil {
		t.Fatal("SliceHead accepted unsupported type")
	}
}

func TestOptionsAndHeaderAccessors(t *testing.T) {
	store := &MemStore{}
	d, err := Create(store, nctype.Clobber, WithHeaderAlign(512), WithCache(1024, 4))
	if err != nil {
		t.Fatal(err)
	}
	x, _ := d.DefDim("x", 4)
	if _, err := d.DefVar("v", nctype.Int, []int{x}); err != nil {
		t.Fatal(err)
	}
	if err := d.EndDef(); err != nil {
		t.Fatal(err)
	}
	h := d.Header()
	if h == nil || h.FindVar("v") < 0 {
		t.Fatal("Header accessor broken")
	}
	if h.Vars[0].Begin%512 != 0 {
		t.Fatalf("WithHeaderAlign ignored: begin %d", h.Vars[0].Begin)
	}
	if d.UnlimitedDimID() != -1 {
		t.Fatalf("UnlimitedDimID = %d", d.UnlimitedDimID())
	}
	shape, err := d.VarShape(0)
	if err != nil || len(shape) != 1 || shape[0] != 4 {
		t.Fatalf("VarShape = %v (%v)", shape, err)
	}
	if _, err := d.VarShape(9); !errors.Is(err, nctype.ErrNotVar) {
		t.Fatalf("VarShape bad id: %v", err)
	}
}

// TestDefinitionLimits: cdf.Decode refuses more than MaxVars variables,
// MaxDims dimensions (in the file or on one variable) or MaxAttrs attributes
// in one list, so the define calls must refuse them first — a dataset at
// the limits reopens, and the one beyond them cannot be made.
func TestDefinitionLimits(t *testing.T) {
	store := &MemStore{}
	d, err := Create(store, nctype.Clobber)
	if err != nil {
		t.Fatal(err)
	}
	x, err := d.DefDim("x", 2)
	if err != nil {
		t.Fatal(err)
	}
	all := []int{x}
	for i := 1; i < nctype.MaxDims; i++ {
		id, err := d.DefDim(fmt.Sprintf("d%d", i), 1)
		if err != nil {
			t.Fatalf("dimension %d of %d: %v", i+1, nctype.MaxDims, err)
		}
		all = append(all, id)
	}
	if _, err := d.DefDim("one_too_many", 1); !errors.Is(err, nctype.ErrMaxDims) {
		t.Fatalf("dimension %d: err = %v, want ErrMaxDims", nctype.MaxDims+1, err)
	}
	if _, err := d.DefVar("too_wide", nctype.Byte, append([]int{x}, all...)); !errors.Is(err, nctype.ErrMaxDims) {
		t.Fatalf("variable of %d dimensions: err = %v, want ErrMaxDims", nctype.MaxDims+1, err)
	}
	if _, err := d.DefVar("widest", nctype.Byte, all); err != nil {
		t.Fatalf("variable of %d dimensions: %v", nctype.MaxDims, err)
	}
	for i := 1; i < nctype.MaxVars; i++ {
		if _, err := d.DefVar(fmt.Sprintf("v%d", i), nctype.Byte, []int{x}); err != nil {
			t.Fatalf("variable %d of %d: %v", i+1, nctype.MaxVars, err)
		}
	}
	if _, err := d.DefVar("one_too_many", nctype.Byte, []int{x}); !errors.Is(err, nctype.ErrMaxVars) {
		t.Fatalf("variable %d: err = %v, want ErrMaxVars", nctype.MaxVars+1, err)
	}
	for i := 0; i < nctype.MaxAttrs; i++ {
		if err := d.PutAttr(GlobalID, fmt.Sprintf("a%d", i), nctype.Byte, []int8{1}); err != nil {
			t.Fatalf("attribute %d of %d: %v", i+1, nctype.MaxAttrs, err)
		}
	}
	if err := d.PutAttr(GlobalID, "one_too_many", nctype.Byte, []int8{1}); !errors.Is(err, nctype.ErrMaxAttrs) {
		t.Fatalf("attribute %d: err = %v, want ErrMaxAttrs", nctype.MaxAttrs+1, err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(store, nctype.NoWrite)
	if err != nil {
		t.Fatalf("reopen at the limits: %v", err)
	}
	if n := len(r.Header().Vars); n != nctype.MaxVars {
		t.Fatalf("reopened %d variables, want %d", n, nctype.MaxVars)
	}
	if n := len(r.Header().GAttrs); n != nctype.MaxAttrs {
		t.Fatalf("reopened %d global attributes, want %d", n, nctype.MaxAttrs)
	}
	if n := len(r.Header().Dims); n != nctype.MaxDims {
		t.Fatalf("reopened %d dimensions, want %d", n, nctype.MaxDims)
	}
}
