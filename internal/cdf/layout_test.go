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
	rec := h.addDim(Dim{Name: "t", Len: 0})
	types := []nctype.Type{nctype.Byte, nctype.Short, nctype.Int, nctype.Float, nctype.Double}
	for i := 0; i < rng.Intn(4); i++ {
		h.putAttr(GlobalID, fmt.Sprintf("g%d", i), nctype.Char, string(make([]byte, 1+rng.Intn(40))), true)
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
		d := h.addDim(Dim{Name: fmt.Sprintf("d%d", i), Len: max(n, 1)})
		dims := []int{d}
		if i >= nfixed {
			dims = []int{rec, d}
		}
		h.addVar(Var{Name: fmt.Sprintf("v%d", i), Type: t, DimIDs: dims})
	}
	h.NumRecs = int64(rng.Intn(4))
	return h
}

// TestLayoutRuleProperty holds computeLayoutAligned(1, unit, 4*unit) — the
// default layout — to its statement over random schemas and striping units
// (1 = none): a fixed variable of at least four units begins on a unit, a
// smaller one directly behind its predecessor; padding is under one unit;
// begins are monotone, nothing overlaps, checkLayout is clean; and the record
// section is the classic one, shifted as a whole. An explicit alignment
// (unit, 0) puts every fixed variable on the unit instead.
func TestLayoutRuleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 400; iter++ {
		unit := []int64{1, 4, 512, 4096, 65536, 1000}[rng.Intn(6)]
		nrec := rng.Intn(4)
		h := randomSchema(rng, unit, 1+rng.Intn(8), nrec)
		classic := h.clone()
		if err := classic.ComputeLayout(1); err != nil {
			t.Fatal(err)
		}
		every := h.clone()
		if err := every.computeLayoutAligned(1, unit, 0); err != nil {
			t.Fatal(err)
		}
		if err := h.computeLayoutAligned(1, unit, 4*unit); err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("iter %d, unit %d", iter, unit)
		end := round4(h.EncodedSize())
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
		if h.recordStart() != end || h.RecSize() != classic.RecSize() {
			t.Fatalf("%s: records start at %d (fixed section ends at %d), recsize %d (classic %d)",
				what, h.recordStart(), end, h.RecSize(), classic.RecSize())
		}
		for i := range h.Vars {
			if v, c := &h.Vars[i], &classic.Vars[i]; h.IsRecordVar(v) &&
				(v.Begin-h.recordStart() != c.Begin-classic.recordStart() || v.VSize != c.VSize) {
				t.Fatalf("%s: record variable %s moved inside the record", what, v.Name)
			}
		}
		if issues := h.checkLayout(h.FileSize()); len(issues) != 0 {
			t.Fatalf("%s: checkLayout: %v", what, issues)
		}
		if unit == 1 && !bytes.Equal(h.Encode(), classic.Encode()) {
			t.Fatalf("%s: unit 1 is not the classic layout", what)
		}
	}
}

// TestRelocationPlanProperty runs relocationPlan between random pairs of
// layouts of one schema — header grown or shrunk, alignment gained or lost,
// a variable appended — over a file image and checks that every byte of every
// old variable and record arrives, with a copy buffer smaller than most
// moves so that a move onto its own source is exercised too.
func TestRelocationPlanProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	units := []int64{1, 64, 512}
	for iter := 0; iter < 300; iter++ {
		old := randomSchema(rng, 64, 1+rng.Intn(5), rng.Intn(3))
		if err := old.computeLayoutAligned(1, units[rng.Intn(3)], int64(rng.Intn(2))*256); err != nil {
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

		h := old.clone()
		switch rng.Intn(3) {
		case 0:
			h.putAttr(GlobalID, "grow", nctype.Char, string(make([]byte, 1+rng.Intn(700))), true)
		case 1:
			h.GAttrs = AttrList{}
		}
		if rng.Intn(2) == 0 {
			d := h.addDim(Dim{Name: "extra", Len: 1 + rng.Int63n(300)})
			dims := []int{d}
			if rng.Intn(2) == 0 {
				dims = []int{0, d}
			}
			h.addVar(Var{Name: "extra", Type: nctype.Int, DimIDs: dims})
		}
		h.renameVar(0, "renamed", true)
		if err := h.computeLayoutAligned(1, units[rng.Intn(3)], int64(rng.Intn(2))*256); err != nil {
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
		for _, m := range h.relocationPlan(old) {
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

// TestRelocationPlanMergesMoves: pieces that keep one shift and stay
// adjacent on both sides travel as one move, so the plan's length counts the
// runs of equal shifts, not the variables or record slots.
func TestRelocationPlanMergesMoves(t *testing.T) {
	grow := func(h *Header) {
		h.putAttr(GlobalID, "history", nctype.Char, "a line long enough to grow the header", true)
	}
	for _, tc := range []struct {
		name     string
		fixed    []int64 // fixed variables' byte lengths
		rec      []int64 // record variables' byte lengths per record
		numRecs  int64
		oldAttr  bool // the old header carries the attribute the change drops
		change   func(h *Header)
		unit     int64 // the new layout's alignment unit
		moves    int
		backward bool
	}{
		{name: "uniform shift", fixed: []int64{400, 1200, 80}, change: grow, unit: 1, moves: 1},
		// A and B are whole units and keep the shift; C takes padding, so D
		// moves further than the run before it.
		{name: "shift changes between variables", fixed: []int64{512, 512, 100, 100}, change: func(*Header) {}, unit: 512, moves: 2},
		{name: "record slots", fixed: []int64{400}, rec: []int64{40, 8}, numRecs: 3, change: grow, unit: 1, moves: 1},
		// A new record variable widens the record: each record shifts by
		// more than the one before it.
		{name: "record slots of a wider record", fixed: []int64{400}, rec: []int64{40, 8}, numRecs: 3, change: func(h *Header) {
			d := h.addDim(Dim{Name: "extra", Len: 4})
			h.addVar(Var{Name: "extra", Type: nctype.Byte, DimIDs: []int{0, d}})
		}, unit: 1, moves: 3},
		{name: "backward", fixed: []int64{400, 1200}, rec: []int64{16}, numRecs: 2, oldAttr: true,
			change: func(h *Header) { h.GAttrs = AttrList{} }, unit: 1, moves: 1, backward: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old := &Header{Version: 2}
			tdim := old.addDim(Dim{Name: "t", Len: 0})
			if tc.oldAttr {
				grow(old)
			}
			for i, n := range append(append([]int64{}, tc.fixed...), tc.rec...) {
				d := old.addDim(Dim{Name: fmt.Sprint("d", i), Len: n})
				dims := []int{d}
				if i >= len(tc.fixed) {
					dims = []int{tdim, d}
				}
				old.addVar(Var{Name: fmt.Sprint("v", i), Type: nctype.Byte, DimIDs: dims})
			}
			old.NumRecs = tc.numRecs
			if err := old.computeLayoutAligned(1, 1, 0); err != nil {
				t.Fatal(err)
			}
			h := old.clone()
			tc.change(h)
			if err := h.computeLayoutAligned(1, tc.unit, 0); err != nil {
				t.Fatal(err)
			}
			moves := h.relocationPlan(old)
			var total, want int64
			for _, m := range moves {
				total += m.N
				if (m.To < m.From) != tc.backward {
					t.Errorf("move %+v goes the wrong way", m)
				}
			}
			for i := range old.Vars {
				if old.IsRecordVar(&old.Vars[i]) {
					want += old.Vars[i].VSize * old.NumRecs
				} else {
					want += old.Vars[i].VSize
				}
			}
			if len(moves) != tc.moves || total != want {
				t.Fatalf("plan %+v: %d moves of %d bytes, want %d of %d", moves, len(moves), total, tc.moves, want)
			}
		})
	}
}
