package cdf

import (
	"fmt"
	"slices"
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

// Slab ceilings. A header cuts its dimension-ID lists, attribute lists and
// attribute values from a few shared arrays (arena), and Decode cuts names
// from shared buffers (stringSlab). A new one is as large as all cut before
// it, but no larger than these, so what a header can strand at the end of
// its slabs stays small next to what it holds.
const (
	listSlabLen  = 1024     // elements of a dimension-ID or attribute-list slab
	valueSlabLen = 4 << 10  // bytes of an attribute-value slab
	nameSlabLen  = 16 << 10 // bytes of a name slab
)

// arena hands out slices cut from shared backing arrays, so that a header's
// many short lists cost a handful of allocations, not one each.
type arena[T any] struct {
	free  []T
	taken int
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
	if len(a.free) < n {
		a.free = make([]T, max(n, min(a.taken, limit)))
	}
	s := a.free[:n:n]
	a.free = a.free[n:]
	a.taken += n
	return s
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

// attrList returns the attribute list of variable varid, or the dataset's
// for GlobalID.
func (h *Header) attrList(varid int) (*[]Attr, error) {
	if varid == GlobalID {
		return &h.GAttrs, nil
	}
	if varid < 0 || varid >= len(h.Vars) {
		return nil, nctype.ErrNotVar
	}
	return &h.Vars[varid].Attrs, nil
}

// findAttr returns the attribute list of varid and the position of the
// attribute called name in it.
func (h *Header) findAttr(varid int, name string) (*[]Attr, int, error) {
	attrs, err := h.attrList(varid)
	if err != nil {
		return nil, -1, err
	}
	i := FindAttr(*attrs, name)
	if i < 0 {
		return nil, -1, fmt.Errorf("%w: %q", nctype.ErrNotAtt, name)
	}
	return attrs, i, nil
}

// putAttr sets attribute name of varid (GlobalID: of the dataset) to value,
// a scalar or slice of a supported type or a string for Char. In define mode
// it replaces or appends. In data mode it may only overwrite an attribute
// with a value no larger than the old one (the classic rule), and then
// reports that the header must be rewritten.
func (h *Header) putAttr(varid int, name string, t nctype.Type, value any, define bool) (rewrite bool, err error) {
	attrs, err := h.attrList(varid)
	if err != nil {
		return false, err
	}
	if err := checkName(name); err != nil {
		return false, err
	}
	if !t.Valid(h.Version) {
		return false, nctype.ErrBadType
	}
	a, err := makeAttr(&h.vals, name, t, value)
	if err != nil {
		return false, err
	}
	i := FindAttr(*attrs, name)
	switch {
	case i >= 0 && (define || len(a.Values) <= len((*attrs)[i].Values)):
		(*attrs)[i] = a
		return !define, nil
	case !define:
		return false, nctype.ErrNotInDefine
	case len(*attrs) >= nctype.MaxAttrs:
		return false, nctype.ErrMaxAttrs
	}
	if cap(*attrs) == 0 {
		// A first attribute starts a list with room for a second; a longer
		// list regrows through append.
		*attrs = h.attrs.carve(2, listSlabLen)[:0]
	}
	*attrs = append(*attrs, a)
	return false, nil
}

// getAttr returns the type and decoded value of attribute name of varid.
func (h *Header) getAttr(varid int, name string) (nctype.Type, any, error) {
	attrs, i, err := h.findAttr(varid, name)
	if err != nil {
		return 0, nil, err
	}
	a := (*attrs)[i]
	v, err := DecodeAttrValue(a)
	return a.Type, v, err
}

// DelAttr removes attribute name of varid.
func (h *Header) delAttr(varid int, name string) error {
	attrs, i, err := h.findAttr(varid, name)
	if err != nil {
		return err
	}
	*attrs = slices.Delete(*attrs, i, i+1)
	return nil
}

// attrNames lists the attribute names of varid in definition order.
func (h *Header) attrNames(varid int) ([]string, error) {
	attrs, err := h.attrList(varid)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(*attrs))
	for i, a := range *attrs {
		names[i] = a.Name
	}
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
	h.dimIdx.rename(id, h.Dims[id].Name, name)
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
	h.varIdx.rename(id, h.Vars[id].Name, name)
	h.Vars[id].Name = name
	return !define, nil
}

// RenameAttr renames attribute old of varid, under RenameDim's rules.
func (h *Header) renameAttr(varid int, old, name string, define bool) (rewrite bool, err error) {
	attrs, i, err := h.findAttr(varid, old)
	if err != nil {
		return false, err
	}
	if err := checkRename("attribute", old, name, FindAttr(*attrs, name), i, define); err != nil {
		return false, err
	}
	(*attrs)[i].Name = name
	return !define, nil
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
