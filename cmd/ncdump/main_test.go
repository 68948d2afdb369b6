package main

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
)

var update = flag.Bool("update", false, "rewrite the golden file from the current output")

// TestDumpGolden dumps a small CDF-5 file — a global attribute of every
// type, each at its edge values, and a variable longer than the data section
// shows — and compares the CDL with testdata/cdf5.cdl. Run with -update to
// rewrite the golden file after a deliberate change of format.
func TestDumpGolden(t *testing.T) {
	store := &netcdf.MemStore{}
	d, err := netcdf.Create(store, nctype.Clobber|nctype.Bit64Data)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	attrs := []struct {
		name string
		typ  nctype.Type
		val  any
	}{
		{"c", nctype.Char, "text \"quoted\""},
		{"b", nctype.Byte, []int8{math.MinInt8, -1, math.MaxInt8}},
		{"s", nctype.Short, []int16{math.MinInt16, math.MaxInt16}},
		{"i", nctype.Int, []int32{math.MinInt32, math.MaxInt32}},
		{"f", nctype.Float, []float32{-1.5, 0.1, math.MaxFloat32}},
		{"d", nctype.Double, []float64{-1.5, 0.1, math.MaxFloat64}},
		{"ub", nctype.UByte, []uint8{0, math.MaxUint8}},
		{"us", nctype.UShort, []uint16{0, math.MaxUint16}},
		{"ui", nctype.UInt, []uint32{0, math.MaxUint32}},
		{"i64", nctype.Int64, []int64{math.MinInt64, 5, math.MaxInt64}},
		{"u64", nctype.UInt64, []uint64{0, math.MaxUint64}},
	}
	for _, a := range attrs {
		must(d.PutAttr(netcdf.GlobalID, a.name, a.typ, a.val))
	}
	x, err := d.DefDim("x", 4100)
	must(err)
	y, err := d.DefDim("y", 3)
	must(err)
	long, err := d.DefVar("long", nctype.Short, []int{x})
	must(err)
	short, err := d.DefVar("short", nctype.UInt64, []int{y})
	must(err)
	must(d.PutAttr(long, "units", nctype.Char, "m"))
	must(d.EndDef())
	vals := make([]int16, 4100)
	for i := range vals {
		vals[i] = int16(i % 10)
	}
	must(d.PutVar(long, vals))
	must(d.PutVar(short, []uint64{0, 1, math.MaxUint64}))
	must(d.Close())

	r, err := netcdf.Open(store, nctype.NoWrite)
	must(err)
	var out bytes.Buffer
	must(dump(&out, r, "cdf5", true))
	golden := filepath.Join("testdata", "cdf5.cdl")
	if *update {
		must(os.WriteFile(golden, out.Bytes(), 0o644))
	}
	want, err := os.ReadFile(golden)
	must(err)
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("ncdump output differs from %s:\n%s", golden, out.String())
	}
}
