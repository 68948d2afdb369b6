package cdf

import (
	"bytes"
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
		if _, err := h.defDim(fmt.Sprintf("d%d", i), n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.putAttr(GlobalID, "title", nctype.Char, "slabs", true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nvars; i++ {
		v, err := h.defVar(fmt.Sprintf("v%d", i), nctype.Int, []int{0, 1, 2}[:i%4])
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < i%4; j++ {
			value := make([]int32, 1+(i+j)%5)
			for k := range value {
				value[k] = int32(1000*i + 10*j + k)
			}
			if _, err := h.putAttr(v, fmt.Sprintf("a%d", j), nctype.Int, value, true); err != nil {
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
	deep := func(l AttrList) []Attr {
		out := attrsOf(l)
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
	if target != GlobalID && !attrsEqual(s.gattrs, attrsOf(h.GAttrs)) {
		return fmt.Errorf("the global attributes changed")
	}
	for i := range s.ids {
		if i == target {
			continue
		}
		if !slices.Equal(s.ids[i], h.Vars[i].DimIDs) {
			return fmt.Errorf("variable %d's dimension IDs changed: %v, were %v", i, h.Vars[i].DimIDs, s.ids[i])
		}
		if !attrsEqual(s.attrs[i], attrsOf(h.Vars[i].Attrs)) {
			return fmt.Errorf("variable %d's attributes changed", i)
		}
	}
	return nil
}

func attrsEqual(a, b []Attr) bool {
	return slices.EqualFunc(a, b, func(x, y Attr) bool {
		return x.Name == y.Name && x.Type == y.Type && x.Nelems == y.Nelems && string(x.Values) == string(y.Values)
	})
}

// TestCarvedListsNeverAlias: lists cut from one slab lie side by side, so
// each must be cut to its own capacity, and an attribute list grows in place
// only into free space; a decoded list is the image's bytes, and a clone
// shares its header's lists, so no change may write over a list. On a header
// built by define calls, on the same header decoded, and on a clone of it,
// every change the libraries make to one variable's lists — a data-mode
// overwrite (first, while a decoded list is still the image's bytes), a new
// attribute, a data-mode overwrite again, a rename, a delete, Redef (a clone)
// followed by a new attribute, and an append to its dimension IDs — leaves
// every other variable's IDs and attributes as they were, a copy of the
// changed list reading as it did, the clone Redef keeps as it was taken, and
// both the image and a sibling header decoded from it as they were: the
// sibling reads and encodes as before.
func TestCarvedListsNeverAlias(t *testing.T) {
	built := definedHeader(t, 300)
	img := built.Encode()
	pristine := slices.Clone(img)
	dec, err := Decode(img)
	if err != nil {
		t.Fatal(err)
	}
	sibling, err := Decode(img)
	if err != nil {
		t.Fatal(err)
	}
	// Encode copies every list, so a sibling that encodes as the image
	// reads as it did too.
	unshared := func() error {
		if !bytes.Equal(img, pristine) {
			return fmt.Errorf("the decoded image changed")
		}
		if !bytes.Equal(sibling.Encode(), pristine) {
			return fmt.Errorf("the sibling decoded from the image encodes differently")
		}
		return nil
	}
	for _, tc := range []struct {
		name string
		h    *Header
	}{{"defined", built}, {"decoded", dec}, {"cloned", dec.clone()}} {
		h := tc.h
		for target := GlobalID; target < len(h.Vars); target++ {
			attrs, _ := h.attrList(target)
			overwrite := func() error {
				a := firstAttr(*attrs)
				if a.Name == "" {
					return nil // no attribute yet; the overwrite after "a new attribute" has one
				}
				rewrite, err := h.putAttr(target, a.Name, nctype.Byte, make([]int8, len(a.Values)), false)
				if err == nil && !rewrite {
					err = fmt.Errorf("a data-mode overwrite does not ask for a header rewrite")
				}
				return err
			}
			changes := []struct {
				what string
				do   func() error
			}{
				// First, while a decoded list is still the image's bytes.
				{"data-mode overwrite", overwrite},
				{"a new attribute", func() error {
					_, err := h.putAttr(target, "appended", nctype.Byte, int8(-18), true)
					return err
				}},
				{"data-mode overwrite after a new attribute", overwrite},
				{"rename", func() error {
					_, err := h.renameAttr(target, firstAttr(*attrs).Name, "renamed_attribute", true)
					return err
				}},
				{"delete", func() error { return h.delAttr(target, firstAttr(*attrs).Name) }},
				{"Redef and a new attribute", func() error {
					before := takeSnap(h)
					old := h.clone()
					if _, err := h.putAttr(target, "after_redef", nctype.Char, "0123456789", true); err != nil {
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
				s, copied := takeSnap(h), *attrs
				was := attrsOf(copied)
				err := c.do()
				if err == nil {
					err = s.sameExcept(h, target)
				}
				if err == nil && !attrsEqual(was, attrsOf(copied)) {
					err = fmt.Errorf("a copy of the changed list no longer reads as it did")
				}
				if err == nil {
					err = unshared()
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
	if _, err := h.putAttr(7, "x", nctype.Int, int32(1), true); err != nctype.ErrNotVar {
		t.Fatalf("unknown variable: %v", err)
	}
	if rewrite, err := h.putAttr(GlobalID, "title", nctype.Char, "slab", false); err != nil || !rewrite {
		t.Fatalf("smaller overwrite in data mode: rewrite %v, %v", rewrite, err)
	}
	if _, err := h.putAttr(GlobalID, "title", nctype.Char, "longer title", false); err != nctype.ErrNotInDefine {
		t.Fatalf("growing overwrite in data mode: %v", err)
	}
	// The data-mode rule compares padded external sizes: "F" takes 4 bytes,
	// and so do "Fa", "Fab" and "Fabc", so each may follow it and the header
	// does not grow; "Fabcd" takes 8. Likewise one short (padded to 4 bytes)
	// may become two, but not three.
	if _, err := h.putAttr(GlobalID, "note", nctype.Char, "F", true); err != nil {
		t.Fatal(err)
	}
	size := h.EncodedSize()
	for _, note := range []string{"Fa", "Fab", "Fabc"} {
		if rewrite, err := h.putAttr(GlobalID, "note", nctype.Char, note, false); err != nil || !rewrite {
			t.Fatalf("overwrite with %q in data mode: rewrite %v, %v", note, rewrite, err)
		}
	}
	if _, err := h.putAttr(GlobalID, "note", nctype.Char, "Fabcd", false); err != nctype.ErrNotInDefine {
		t.Fatalf("overwrite past the padding in data mode: %v", err)
	}
	if got := h.EncodedSize(); got != size {
		t.Fatalf("data-mode overwrites took the header from %d to %d bytes", size, got)
	}
	if _, err := h.putAttr(0, "range", nctype.Short, int16(1), true); err != nil {
		t.Fatal(err)
	}
	size = h.EncodedSize()
	if _, err := h.putAttr(0, "range", nctype.Short, []int16{-1, 1}, false); err != nil {
		t.Fatalf("one short to two in data mode: %v", err)
	}
	if _, err := h.putAttr(0, "range", nctype.Short, []int16{-1, 0, 1}, false); err != nctype.ErrNotInDefine {
		t.Fatalf("one short to three in data mode: %v", err)
	}
	if got := h.EncodedSize(); got != size {
		t.Fatalf("data-mode overwrites took the header from %d to %d bytes", size, got)
	}
	if _, v, err := h.getAttr(0, "range"); err != nil || !slices.Equal(v.([]int16), []int16{-1, 1}) {
		t.Fatalf("range = %v, %v", v, err)
	}
	if err := h.delAttr(0, "range"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.putAttr(GlobalID, "new", nctype.Char, "x", false); err != nctype.ErrNotInDefine {
		t.Fatalf("new attribute in data mode: %v", err)
	}
	if rewrite, err := h.putAttr(GlobalID, "title", nctype.Char, "longer title", true); err != nil || rewrite {
		t.Fatalf("growing overwrite in define mode: rewrite %v, %v", rewrite, err)
	}
	if typ, v, err := h.getAttr(GlobalID, "title"); err != nil || typ != nctype.Char || string(v.([]byte)) != "longer title" {
		t.Fatalf("GetAttr = %v %q %v", typ, v, err)
	}
	if _, err := h.putAttr(0, "s", nctype.Double, 2.5, true); err != nil {
		t.Fatal(err)
	}
	if attrs := h.Vars[0].Attrs; attrs.Len() != 1 || len(attrs.xdr) != 4+4+4+4+8 {
		t.Fatalf("a first attribute makes a list of its encoding alone; got %d attributes in %d bytes", attrs.Len(), len(attrs.xdr))
	}
	if names, _ := h.attrNames(0); !slices.Equal(names, []string{"s"}) {
		t.Fatalf("AttrNames = %v", names)
	}
}
