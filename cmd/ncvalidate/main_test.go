package main

import (
	"errors"
	"strings"
	"testing"

	"pnetcdf/internal/fault"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
)

// TestClassify: one verdict per way a file can be found — sound, short of
// what it declares, torn with a journal to recover from, created but never
// committed, and not netCDF at all. Only the first is clean.
func TestClassify(t *testing.T) {
	store := &netcdf.MemStore{}
	d, err := netcdf.Create(store, nctype.Clobber)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := d.DefDim("x", 16)
	if _, err := d.DefVar("grid", nctype.Int, []int{x}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	sound := store.Data
	hdr := sound[:d.Header().EncodedSize()]
	zeroMagic := append([]byte{0, 0, 0, 0}, sound[4:]...)
	// A recommit that dies in the header body leaves its journal behind.
	in := fault.New(fault.Config{Seed: 1})
	torn := &netcdf.MemStore{Data: append([]byte(nil), sound...)}
	w, err := netcdf.Open(fault.NewFaultyStore(torn, in), nctype.Write)
	if err != nil {
		t.Fatal(err)
	}
	in.ArmCrash(5, false)
	if err := w.Sync(); !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("sync: %v, want the armed crash", err)
	}

	for _, tc := range []struct {
		name   string
		img    []byte
		report string
		clean  bool
	}{
		{"sound", sound, "OK (classic format, 1 dims, 1 vars, 0 records)", true},
		{"short", hdr, "1 layout issue(s):", false},
		{"torn, journaled", torn.Data, "TORN HEADER, recoverable", false},
		{"first commit died", zeroMagic, "creation never completed: no header was ever committed", false},
		{"created, never committed", nil, "creation never completed: no header was ever committed", false},
		{"not netCDF", []byte("\x89HDF\r\n\x1a\n and so on"), "INVALID: netcdf: not a netCDF file", false},
	} {
		report, clean := classify(tc.img)
		if !strings.HasPrefix(report, tc.report) || clean != tc.clean {
			t.Errorf("%s: %q, clean = %v; want %q…, clean = %v", tc.name, report, clean, tc.report, tc.clean)
		}
	}
}
