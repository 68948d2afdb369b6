package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pnetcdf/internal/cdf"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
)

// writeSource writes a small classic file at path: a fixed and a record
// variable of different types, two records, global and variable attributes.
func writeSource(t *testing.T, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := netcdf.Create(netcdf.OSStore{F: f}, nctype.Clobber)
	if err != nil {
		t.Fatal(err)
	}
	tdim, _ := d.DefDim("time", 0)
	xdim, _ := d.DefDim("x", 5)
	grid, _ := d.DefVar("grid", nctype.Double, []int{xdim})
	obs, _ := d.DefVar("obs", nctype.Short, []int{tdim, xdim})
	for _, err := range []error{
		d.PutAttr(netcdf.GlobalID, "title", nctype.Char, "nccopy source"),
		d.PutAttr(obs, "scale", nctype.Float, []float32{0.5, 2}),
		d.EndDef(),
		d.PutVar(grid, []float64{0.5, 1.5, 2.5, 3.5, 4.5}),
		d.PutVara(obs, []int64{0, 0}, []int64{2, 5}, []int16{1, 2, 3, 4, 5, -1, -2, -3, -4, -5}),
		d.Close(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func open(t *testing.T, path string) *netcdf.Dataset {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := netcdf.Open(netcdf.OSStore{F: f}, nctype.NoWrite)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// sameContent reports the first way b's dimensions, attributes, variables or
// data differ from a's; file offsets and the format version may differ.
func sameContent(a, b *netcdf.Dataset) error {
	ha, hb := a.Header(), b.Header()
	if !reflect.DeepEqual(ha.Dims, hb.Dims) || ha.NumRecs != hb.NumRecs || len(ha.Vars) != len(hb.Vars) {
		return fmt.Errorf("structure: %v %d vars vs %v %d vars", ha.Dims, len(ha.Vars), hb.Dims, len(hb.Vars))
	}
	attrs := func(d *netcdf.Dataset, id int) map[string]any {
		m := map[string]any{}
		names, _ := d.AttrNames(id)
		for _, n := range names {
			_, v, _ := d.GetAttr(id, n)
			m[n] = v
		}
		return m
	}
	for id := netcdf.GlobalID; id < len(ha.Vars); id++ {
		if ga, gb := attrs(a, id), attrs(b, id); !reflect.DeepEqual(ga, gb) {
			return fmt.Errorf("variable %d attributes: %v vs %v", id, ga, gb)
		}
	}
	for i := range ha.Vars {
		va, vb := &ha.Vars[i], &hb.Vars[i]
		if va.Name != vb.Name || va.Type != vb.Type || !reflect.DeepEqual(va.DimIDs, vb.DimIDs) {
			return fmt.Errorf("variable %d: %+v vs %+v", i, *va, *vb)
		}
		shape, _ := a.VarShape(i)
		n := int64(1)
		for _, s := range shape {
			n *= s
		}
		da, db := cdf.NewSlice(va.Type, n), cdf.NewSlice(va.Type, n)
		if err := a.GetVar(i, da); err != nil {
			return err
		}
		if err := b.GetVar(i, db); err != nil {
			return err
		}
		if !reflect.DeepEqual(da, db) {
			return fmt.Errorf("variable %q data: %v vs %v", va.Name, da, db)
		}
	}
	return nil
}

// TestCopyConvertsAndAligns: every output kind, aligned to 4096 bytes, reads
// back equal to its source, in the requested version, with every fixed
// variable on a 4096-byte boundary.
func TestCopyConvertsAndAligns(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.nc")
	writeSource(t, in)
	for _, k := range []int{1, 2, 5} {
		out := filepath.Join(dir, fmt.Sprintf("out%d.nc", k))
		if err := run(in, out, k, 4096); err != nil {
			t.Fatalf("-k %d: %v", k, err)
		}
		src, dst := open(t, in), open(t, out)
		if err := sameContent(src, dst); err != nil {
			t.Fatalf("-k %d: %v", k, err)
		}
		h := dst.Header()
		if h.Version != k {
			t.Fatalf("-k %d: copy is version %d", k, h.Version)
		}
		if begin := h.Vars[h.FindVar("grid")].Begin; begin%4096 != 0 {
			t.Fatalf("-k %d: grid begins at %d, not aligned to 4096", k, begin)
		}
	}
}

// TestCopyOntoItselfRefused: an output naming the input file, directly or
// through another path, is refused and the input is left byte-identical.
func TestCopyOntoItselfRefused(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.nc")
	writeSource(t, in)
	want, err := os.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	link := filepath.Join(dir, "link.nc")
	if err := os.Link(in, link); err != nil {
		t.Fatal(err)
	}
	for _, out := range []string{in, filepath.Join(dir, ".", "in.nc"), link} {
		if err := run(in, out, 2, 4096); err == nil {
			t.Fatalf("copy onto %s accepted", out)
		}
		got, err := os.ReadFile(in)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("copy onto %s changed the input: %d bytes, was %d", out, len(got), len(want))
		}
	}
}

// TestBadKind: a version nccopy cannot write is refused before any file is
// created.
func TestBadKind(t *testing.T) {
	if _, ok := createMode(3); ok {
		t.Fatal("createMode accepted version 3")
	}
	dir := t.TempDir()
	in, out := filepath.Join(dir, "in.nc"), filepath.Join(dir, "out.nc")
	writeSource(t, in)
	if err := run(in, out, 3, 1); err == nil {
		t.Fatal("run accepted -k 3")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("output created for a bad -k: %v", err)
	}
}
