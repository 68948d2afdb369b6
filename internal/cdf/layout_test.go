package cdf

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"pnetcdf/internal/nctype"
)

// randomSchema builds a CDF-2 header of nfixed fixed and nrec record
// variables whose fixed sizes straddle 4*unit, with a few attributes so the
// header ends at an arbitrary offset.
func randomSchema(rng *rand.Rand, unit int64, nfixed, nrec int) *Header {
	h := &Header{Version: 2}
	rec := h.AddDim(Dim{Name: "t", Len: 0})
	types := []nctype.Type{nctype.Byte, nctype.Short, nctype.Int, nctype.Float, nctype.Double}
	for i := 0; i < rng.Intn(4); i++ {
		a, _ := MakeAttr(fmt.Sprintf("g%d", i), nctype.Char, string(make([]byte, 1+rng.Intn(40))))
		h.GAttrs = append(h.GAttrs, a)
	}
	for i := 0; i < nfixed+nrec; i++ {
		t := types[rng.Intn(len(types))]
		var n int64
		switch rng.Intn(4) {
		case 0: // small
			n = 1 + rng.Int63n(64)
		case 1: // just under the threshold
			n = max(1, (4*unit-1-rng.Int63n(8))/int64(t.Size()))
		case 2: // exactly or just over it
			n = (4*unit+int64(t.Size())-1)/int64(t.Size()) + rng.Int63n(3)
		default: // several units, not a whole number of them
			n = (4+rng.Int63n(8))*unit/int64(t.Size()) + rng.Int63n(5)
		}
		d := h.AddDim(Dim{Name: fmt.Sprintf("d%d", i), Len: max(n, 1)})
		dims := []int{d}
		if i >= nfixed {
			dims = []int{rec, d}
		}
		h.AddVar(Var{Name: fmt.Sprintf("v%d", i), Type: t, DimIDs: dims})
	}
	h.NumRecs = int64(rng.Intn(4))
	return h
}

// TestLayoutRuleProperty holds ComputeLayoutAligned(1, unit, 4*unit) — the
// default layout — to its statement over random schemas and striping units
// (1 = none): a fixed variable of at least four units begins on a unit, a
// smaller one directly behind its predecessor; padding is under one unit;
// begins are monotone, nothing overlaps, CheckLayout is clean; and the record
// section is the classic one, shifted as a whole. An explicit alignment
// (unit, 0) puts every fixed variable on the unit instead.
func TestLayoutRuleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 400; iter++ {
		unit := []int64{1, 4, 512, 4096, 65536, 1000}[rng.Intn(6)]
		nrec := rng.Intn(4)
		h := randomSchema(rng, unit, 1+rng.Intn(8), nrec)
		classic := h.Clone()
		if err := classic.ComputeLayout(1); err != nil {
			t.Fatal(err)
		}
		every := h.Clone()
		if err := every.ComputeLayoutAligned(1, unit, 0); err != nil {
			t.Fatal(err)
		}
		if err := h.ComputeLayoutAligned(1, unit, 4*unit); err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("iter %d, unit %d", iter, unit)
		end := Round4(h.EncodedSize())
		for i := range h.Vars {
			v := &h.Vars[i]
			if h.IsRecordVar(v) {
				continue
			}
			if v.VSize != classic.Vars[i].VSize {
				t.Fatalf("%s: %s has vsize %d, classic %d", what, v.Name, v.VSize, classic.Vars[i].VSize)
			}
			switch pad := v.Begin - end; {
			case v.VSize >= 4*unit && (v.Begin%unit != 0 || pad < 0 || pad >= unit):
				t.Fatalf("%s: %s (%d bytes) begins at %d, %d past its predecessor's end", what, v.Name, v.VSize, v.Begin, pad)
			case v.VSize < 4*unit && pad != 0:
				t.Fatalf("%s: %s (%d bytes, under four units) is padded by %d", what, v.Name, v.VSize, pad)
			}
			end = v.Begin + v.VSize
			if e := &every.Vars[i]; e.Begin%unit != 0 {
				t.Fatalf("%s: explicit alignment left %s at %d", what, e.Name, e.Begin)
			}
		}
		// The record section: begins relative to its start, and the record
		// size, are the classic layout's; it starts where the fixed one ends.
		if h.RecordStart() != end || h.RecSize() != classic.RecSize() {
			t.Fatalf("%s: records start at %d (fixed section ends at %d), recsize %d (classic %d)",
				what, h.RecordStart(), end, h.RecSize(), classic.RecSize())
		}
		for i := range h.Vars {
			if v, c := &h.Vars[i], &classic.Vars[i]; h.IsRecordVar(v) &&
				(v.Begin-h.RecordStart() != c.Begin-classic.RecordStart() || v.VSize != c.VSize) {
				t.Fatalf("%s: record variable %s moved inside the record", what, v.Name)
			}
		}
		if issues := h.CheckLayout(h.FileSize()); len(issues) != 0 {
			t.Fatalf("%s: CheckLayout: %v", what, issues)
		}
		if unit == 1 && !bytes.Equal(h.Encode(), classic.Encode()) {
			t.Fatalf("%s: unit 1 is not the classic layout", what)
		}
	}
}

// TestRelocationPlanProperty runs RelocationPlan between random pairs of
// layouts of one schema — header grown or shrunk, alignment gained or lost,
// a variable appended — over a file image and checks that every byte of every
// old variable and record arrives, with a copy buffer smaller than most
// moves so that a move onto its own source is exercised too.
func TestRelocationPlanProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	units := []int64{1, 64, 512}
	for iter := 0; iter < 300; iter++ {
		old := randomSchema(rng, 64, 1+rng.Intn(5), rng.Intn(3))
		if err := old.ComputeLayoutAligned(1, units[rng.Intn(3)], int64(rng.Intn(2))*256); err != nil {
			t.Fatal(err)
		}
		img := make([]byte, old.FileSize())
		rng.Read(img[old.EncodedSize():])
		want := map[string][]byte{}
		pieces := func(h *Header, f func(key string, off, n int64)) {
			// The variables that hold data, at the size they hold (a lone
			// record variable's slot is unpadded until it gets a sibling).
			for i := range old.Vars {
				v, n := &h.Vars[i], old.Vars[i].VSize
				if !h.IsRecordVar(v) {
					f(fmt.Sprint(i), v.Begin, n)
					continue
				}
				for rec := int64(0); rec < old.NumRecs; rec++ {
					f(fmt.Sprint(i, "/", rec), h.RecordOffset(v, rec), n)
				}
			}
		}
		pieces(old, func(key string, off, n int64) { want[key] = append([]byte(nil), img[off:off+n]...) })

		h := old.Clone()
		switch rng.Intn(3) {
		case 0:
			a, _ := MakeAttr("grow", nctype.Char, string(make([]byte, 1+rng.Intn(700))))
			h.GAttrs = append(h.GAttrs, a)
		case 1:
			h.GAttrs = nil
		}
		if rng.Intn(2) == 0 {
			d := h.AddDim(Dim{Name: "extra", Len: 1 + rng.Int63n(300)})
			dims := []int{d}
			if rng.Intn(2) == 0 {
				dims = []int{0, d}
			}
			h.AddVar(Var{Name: "extra", Type: nctype.Int, DimIDs: dims})
		}
		h.RenameVar(0, "renamed", true)
		if err := h.ComputeLayoutAligned(1, units[rng.Intn(3)], int64(rng.Intn(2))*256); err != nil {
			t.Fatal(err)
		}
		img = append(img, make([]byte, max(0, h.FileSize()-int64(len(img))))...)
		rw := func(write bool) func(p []byte, off int64) error {
			return func(p []byte, off int64) error {
				if write {
					copy(img[off:], p)
				} else {
					copy(p, img[off:])
				}
				return nil
			}
		}
		buf := make([]byte, 1+rng.Intn(100))
		for _, m := range h.RelocationPlan(old) {
			if m.From == m.To || m.N == 0 {
				t.Fatalf("iter %d: the plan carries a move that moves nothing: %+v", iter, m)
			}
			if err := m.Copy(buf, rw(false), rw(true)); err != nil {
				t.Fatal(err)
			}
		}
		pieces(h, func(key string, off, n int64) {
			if !bytes.Equal(img[off:off+n], want[key]) {
				t.Fatalf("iter %d: piece %s did not arrive whole at %d", iter, key, off)
			}
		})
	}
}
