package cdf

import (
	"fmt"
	"slices"
	"testing"

	"pnetcdf/internal/nctype"
)

// definedHeader builds a header through the define calls only: variables of
// zero to three dimensions with zero to three attributes of assorted sizes,
// enough of them to fill several slabs.
func definedHeader(t *testing.T, nvars int) *Header {
	t.Helper()
	h := &Header{Version: 2}
	for i, n := range []int64{0, 3, 5} {
		if _, err := h.DefDim(fmt.Sprintf("d%d", i), n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.PutAttr(GlobalID, "title", nctype.Char, "slabs", true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nvars; i++ {
		v, err := h.DefVar(fmt.Sprintf("v%d", i), nctype.Int, []int{0, 1, 2}[:i%4])
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < i%4; j++ {
			value := make([]int32, 1+(i+j)%5)
			for k := range value {
				value[k] = int32(1000*i + 10*j + k)
			}
			if _, err := h.PutAttr(v, fmt.Sprintf("a%d", j), nctype.Int, value, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := h.ComputeLayout(1); err != nil {
		t.Fatal(err)
	}
	return h
}

// snap is a copy of a header's lists and values made with fresh memory, so
// that it cannot change with the header.
type snap struct {
	gattrs []Attr
	ids    [][]int
	attrs  [][]Attr
}

func takeSnap(h *Header) snap {
	deep := func(as []Attr) []Attr {
		out := slices.Clone(as)
		for i := range out {
			out[i].Values = slices.Clone(out[i].Values)
		}
		return out
	}
	s := snap{gattrs: deep(h.GAttrs)}
	for i := range h.Vars {
		s.ids = append(s.ids, slices.Clone(h.Vars[i].DimIDs))
		s.attrs = append(s.attrs, deep(h.Vars[i].Attrs))
	}
	return s
}

// sameExcept reports the first list of h, other than target's (GlobalID for
// the global attributes), that no longer matches s.
func (s snap) sameExcept(h *Header, target int) error {
	if target != GlobalID && !attrsEqual(s.gattrs, h.GAttrs) {
		return fmt.Errorf("the global attributes changed")
	}
	for i := range s.ids {
		if i == target {
			continue
		}
		if !slices.Equal(s.ids[i], h.Vars[i].DimIDs) {
			return fmt.Errorf("variable %d's dimension IDs changed: %v, were %v", i, h.Vars[i].DimIDs, s.ids[i])
		}
		if !attrsEqual(s.attrs[i], h.Vars[i].Attrs) {
			return fmt.Errorf("variable %d's attributes changed", i)
		}
	}
	return nil
}

// TestCarvedListsNeverAlias: lists and values cut from one slab lie side by
// side, so each must be cut to its own capacity. On a header built by define
// calls, on the same header decoded, and on a clone of it, every change the
// libraries make to one variable's lists — an append to its dimension IDs
// and to its attributes, a data-mode overwrite, a delete, and Redef (a
// clone) followed by a new attribute — leaves every other variable's IDs,
// attribute list and attribute values as they were, and the clone Redef
// keeps as it was taken.
func TestCarvedListsNeverAlias(t *testing.T) {
	built := definedHeader(t, 300)
	dec, err := Decode(built.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		h    *Header
	}{{"defined", built}, {"decoded", dec}, {"cloned", dec.Clone()}} {
		h := tc.h
		for target := GlobalID; target < len(h.Vars); target++ {
			attrs, _ := h.attrList(target)
			changes := []struct {
				what string
				do   func() error
			}{
				{"append to the attributes", func() error {
					*attrs = append(*attrs, Attr{Name: "appended", Type: nctype.Byte, Nelems: 1, Values: []byte{0xEE}})
					return nil
				}},
				{"data-mode overwrite", func() error {
					a := (*attrs)[0]
					rewrite, err := h.PutAttr(target, a.Name, nctype.Byte, make([]int8, len(a.Values)), false)
					if err == nil && !rewrite {
						err = fmt.Errorf("a data-mode overwrite does not ask for a header rewrite")
					}
					return err
				}},
				{"delete", func() error { return h.DelAttr(target, (*attrs)[0].Name) }},
				{"Redef and a new attribute", func() error {
					before := takeSnap(h)
					old := h.Clone()
					if _, err := h.PutAttr(target, "after_redef", nctype.Char, "0123456789", true); err != nil {
						return err
					}
					return before.sameExcept(old, -2)
				}},
			}
			if target != GlobalID {
				changes = append(changes, struct {
					what string
					do   func() error
				}{"append to the dimension IDs", func() error {
					h.Vars[target].DimIDs = append(h.Vars[target].DimIDs, 1)
					return nil
				}})
			}
			for _, c := range changes {
				s := takeSnap(h)
				err := c.do()
				if err == nil {
					err = s.sameExcept(h, target)
				}
				if err != nil {
					t.Fatalf("%s header, variable %d, %s: %v", tc.name, target, c.what, err)
				}
			}
		}
	}
}

// TestPutAttrRules: the define-mode and data-mode rules of PutAttr, and
// where each ends up in the header.
func TestPutAttrRules(t *testing.T) {
	h := definedHeader(t, 3)
	if _, err := h.PutAttr(7, "x", nctype.Int, int32(1), true); err != nctype.ErrNotVar {
		t.Fatalf("unknown variable: %v", err)
	}
	if rewrite, err := h.PutAttr(GlobalID, "title", nctype.Char, "slab", false); err != nil || !rewrite {
		t.Fatalf("smaller overwrite in data mode: rewrite %v, %v", rewrite, err)
	}
	if _, err := h.PutAttr(GlobalID, "title", nctype.Char, "longer title", false); err != nctype.ErrNotInDefine {
		t.Fatalf("growing overwrite in data mode: %v", err)
	}
	if _, err := h.PutAttr(GlobalID, "new", nctype.Char, "x", false); err != nctype.ErrNotInDefine {
		t.Fatalf("new attribute in data mode: %v", err)
	}
	if rewrite, err := h.PutAttr(GlobalID, "title", nctype.Char, "longer title", true); err != nil || rewrite {
		t.Fatalf("growing overwrite in define mode: rewrite %v, %v", rewrite, err)
	}
	if typ, v, err := h.GetAttr(GlobalID, "title"); err != nil || typ != nctype.Char || string(v.([]byte)) != "longer title" {
		t.Fatalf("GetAttr = %v %q %v", typ, v, err)
	}
	if _, err := h.PutAttr(0, "s", nctype.Double, 2.5, true); err != nil {
		t.Fatal(err)
	}
	if attrs := h.Vars[0].Attrs; len(attrs) != 1 || cap(attrs) != 2 {
		t.Fatalf("a first attribute starts a list of len 1, cap 2; got %d, %d", len(attrs), cap(attrs))
	}
	if names, _ := h.AttrNames(0); !slices.Equal(names, []string{"s"}) {
		t.Fatalf("AttrNames = %v", names)
	}
}
