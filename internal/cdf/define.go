package cdf

import (
	"fmt"
	"strings"

	"pnetcdf/internal/nctype"
)

// The define rules. Front (front.go) calls these methods for every
// definition, attribute change and rename, after its mode check: whether a
// call is legal for the header, and what it changes, is decided here once. A
// method that may run in data mode takes define and reports whether the
// header must be rewritten.

// GlobalID addresses the dataset itself in attribute calls (NC_GLOBAL).
const GlobalID = -1

// Slab ceilings. A header cuts its dimension-ID lists and the attribute
// lists it defines from a few shared arrays (arena), and Decode cuts names
// from shared buffers (stringSlab). A new one is as large as all cut before
// it, but no larger than these, so what a header can strand at the end of
// its slabs stays small next to what it holds.
const (
	listSlabLen = 1024     // elements of a dimension-ID slab
	attrSlabLen = 16 << 10 // bytes of an attribute-list slab
	nameSlabLen = 16 << 10 // bytes of a name slab
)

// arena hands out slices cut from shared backing arrays, so that a header's
// many short lists cost a handful of allocations, not one each.
type arena[T any] struct {
	slab  []T // the current backing array
	used  int // elements of slab handed out
	last  int // where in slab the latest cut starts
	taken int // elements handed out from every slab
}

// carve returns n zeroed elements with capacity n: appending to one list
// cannot reach its neighbour. A fresh backing array is as large as all that
// was carved before it (k lists cost O(log k) allocations and at most twice
// their memory) but no larger than limit, the slab's ceiling or less; n
// itself must already be known to fit.
func (a *arena[T]) carve(n, limit int) []T {
	if n == 0 {
		return []T{}
	}
	if len(a.slab)-a.used < n {
		a.slab, a.used = make([]T, max(n, min(a.taken, limit))), 0
	}
	a.last, a.used, a.taken = a.used, a.used+n, a.taken+n
	return a.slab[a.last:a.used:a.used]
}

// grow returns s n elements longer, in place, when s is the latest cut and
// its slab has n more elements free; ok is false otherwise.
func (a *arena[T]) grow(s []T, n int) (grown []T, ok bool) {
	if len(s) == 0 || a.used-a.last != len(s) || &s[0] != &a.slab[a.last] || len(a.slab)-a.used < n {
		return nil, false
	}
	a.used, a.taken = a.used+n, a.taken+n
	return a.slab[a.last:a.used:a.used], true
}

// stringSlab cuts strings from shared buffers the way arena cuts slices. A
// strings.Builder's String does not copy and a builder only appends, so a
// string cut from one stays valid after the builder is replaced.
type stringSlab struct {
	b     strings.Builder
	taken int
}

// cut returns p as a string, under carve's sizing rule.
func (s *stringSlab) cut(p []byte, limit int) string {
	if s.b.Cap()-s.b.Len() < len(p) {
		s.b = strings.Builder{}
		s.b.Grow(max(len(p), min(s.taken, limit)))
	}
	start := s.b.Len()
	s.b.Write(p)
	s.taken += len(p)
	return s.b.String()[start:]
}

// defDim defines a dimension and returns its ID; size 0 declares the
// unlimited dimension.
func (h *Header) defDim(name string, size int64) (int, error) {
	if err := checkName(name); err != nil {
		return -1, err
	}
	if h.FindDim(name) >= 0 {
		return -1, fmt.Errorf("%w: dimension %q", nctype.ErrNameInUse, name)
	}
	if size < 0 {
		return -1, nctype.ErrBadDim
	}
	if size == 0 && h.unlimitedDimID() >= 0 {
		return -1, nctype.ErrMultiUnlimited
	}
	if len(h.Dims) >= nctype.MaxDims {
		// As with MaxVars below: Decode refuses a longer dim_list.
		return -1, nctype.ErrMaxDims
	}
	return h.addDim(Dim{Name: name, Len: size}), nil
}

// defVar defines a variable over previously defined dimensions and returns
// its ID. The header keeps its own copy of dimids.
func (h *Header) defVar(name string, t nctype.Type, dimids []int) (int, error) {
	if err := checkName(name); err != nil {
		return -1, err
	}
	if h.FindVar(name) >= 0 {
		return -1, fmt.Errorf("%w: variable %q", nctype.ErrNameInUse, name)
	}
	if !t.Valid(h.Version) {
		return -1, nctype.ErrBadType
	}
	if len(h.Vars) >= nctype.MaxVars {
		// Decode refuses a longer var_list: one more variable would make a
		// file that can be written but never reopened.
		return -1, nctype.ErrMaxVars
	}
	if len(dimids) > nctype.MaxDims {
		return -1, nctype.ErrMaxDims
	}
	for pos, id := range dimids {
		if id < 0 || id >= len(h.Dims) {
			return -1, nctype.ErrBadDim
		}
		if h.Dims[id].IsUnlimited() && pos != 0 {
			return -1, nctype.ErrUnlimPos
		}
	}
	ids := h.ids.carve(len(dimids), listSlabLen)
	copy(ids, dimids)
	return h.addVar(Var{Name: name, Type: t, DimIDs: ids}), nil
}

// findAttr returns the attribute list of varid, the attribute called name
// in it, and where that attribute's bytes start.
func (h *Header) findAttr(varid int, name string) (*AttrList, attrAt, int, error) {
	l, err := h.attrList(varid)
	if err != nil {
		return nil, attrAt{}, 0, err
	}
	a, at, _, ok := l.lookup(name)
	if !ok {
		return nil, attrAt{}, 0, fmt.Errorf("%w: %q", nctype.ErrNotAtt, name)
	}
	return l, a, at, nil
}

// putAttr sets attribute name of varid (GlobalID: of the dataset) to value,
// a scalar or slice of a supported type or a string for Char. In define mode
// it replaces or appends. In data mode it may only overwrite an attribute,
// with a value whose padded external size is no larger than the old one's —
// the header cannot grow, as in netCDF-C and PnetCDF — and then reports that
// the header must be rewritten.
func (h *Header) putAttr(varid int, name string, t nctype.Type, value any, define bool) (rewrite bool, err error) {
	l, err := h.attrList(varid)
	if err != nil {
		return false, err
	}
	if err := checkName(name); err != nil {
		return false, err
	}
	if !t.Valid(h.Version) {
		return false, nctype.ErrBadType
	}
	value = promoteScalar(value)
	n := SliceLen(value)
	if n < 0 {
		return false, fmt.Errorf("%w: attribute value %T", nctype.ErrTypeMismatch, value)
	}
	encode := func(dst []byte) ([]byte, error) { return EncodeSlice(dst, t, value) }
	old, at, i, ok := l.lookup(name)
	switch {
	case ok && (define || round4(int64(n*t.Size())) <= round4(int64(len(old.values)))):
		if err := h.setAttr(l, at, old.next, name, t, n, encode); err != nil {
			return false, err
		}
		return !define, nil
	case !define:
		return false, nctype.ErrNotInDefine
	case i >= nctype.MaxAttrs: // the lookup that missed counted the list
		return false, nctype.ErrMaxAttrs
	}
	return false, h.setAttr(l, at, at, name, t, n, encode)
}

// getAttr returns the type and decoded value of attribute name of varid.
func (h *Header) getAttr(varid int, name string) (nctype.Type, any, error) {
	_, a, _, err := h.findAttr(varid, name)
	if err != nil {
		return 0, nil, err
	}
	v, err := DecodeAttrValue(Attr{Type: a.typ, Nelems: a.nelems, Values: a.values})
	return a.typ, v, err
}

// DelAttr removes attribute name of varid.
func (h *Header) delAttr(varid int, name string) error {
	l, a, at, err := h.findAttr(varid, name)
	if err != nil {
		return err
	}
	h.cutAttr(l, at, a.next)
	return nil
}

// attrNames lists the attribute names of varid in definition order.
func (h *Header) attrNames(varid int) ([]string, error) {
	l, err := h.attrList(varid)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, l.Len())
	l.Walk(func(a Attr) { names = append(names, a.Name) })
	return names, nil
}

// RenameDim gives dimension id a new name. In data mode the name may not
// grow, and the header must then be rewritten.
func (h *Header) renameDim(id int, name string, define bool) (rewrite bool, err error) {
	if id < 0 || id >= len(h.Dims) {
		return false, nctype.ErrNotDim
	}
	if err := checkRename("dimension", h.Dims[id].Name, name, h.FindDim(name), id, define); err != nil {
		return false, err
	}
	h.dimIdx.extend(len(h.Dims), h.dimName)
	h.dimIdx.rename(id, h.Dims[id].Name, name, h.dimName)
	h.Dims[id].Name = name
	return !define, nil
}

// RenameVar gives variable id a new name, under RenameDim's rules.
func (h *Header) renameVar(id int, name string, define bool) (rewrite bool, err error) {
	if id < 0 || id >= len(h.Vars) {
		return false, nctype.ErrNotVar
	}
	if err := checkRename("variable", h.Vars[id].Name, name, h.FindVar(name), id, define); err != nil {
		return false, err
	}
	h.varIdx.extend(len(h.Vars), h.varName)
	h.varIdx.rename(id, h.Vars[id].Name, name, h.varName)
	h.Vars[id].Name = name
	return !define, nil
}

// RenameAttr renames attribute old of varid, under RenameDim's rules.
func (h *Header) renameAttr(varid int, old, name string, define bool) (rewrite bool, err error) {
	l, a, at, err := h.findAttr(varid, old)
	if err != nil {
		return false, err
	}
	_, to, _, ok := l.lookup(name) // positions are compared as byte offsets
	if !ok {
		to = -1
	}
	if err := checkRename("attribute", old, name, to, at, define); err != nil {
		return false, err
	}
	// Type, count and values stay as they are: external bytes already.
	err = h.setAttr(l, at, a.next, name, a.typ, int(a.nelems), func(dst []byte) ([]byte, error) {
		return append(dst, a.values...), nil
	})
	return !define, err
}

// checkRename holds a rename of element id from old to name against the
// rules every rename shares: a valid name that no other element of the list
// carries (at is where the list has it, or -1), and in data mode one no
// longer than the old.
func checkRename(kind, old, name string, at, id int, define bool) error {
	if err := checkName(name); err != nil {
		return err
	}
	if at >= 0 && at != id {
		return fmt.Errorf("%w: %s %q", nctype.ErrNameInUse, kind, name)
	}
	if !define && len(name) > len(old) {
		return nctype.ErrNotInDefine
	}
	return nil
}
