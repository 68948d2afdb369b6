// Package cdf implements the netCDF classic file format (CDF-1, CDF-2 and
// CDF-5): the binary header holding dimensions, global attributes and
// variable metadata, the layout rules placing fixed-size arrays contiguously
// and record variables interleaved by record, and the big-endian external
// data encoding.
//
// The package is pure encoding/decoding and layout arithmetic; it performs
// no I/O of its own (ReadHeader drives a read function its caller supplies).
// Both the serial library (internal/netcdf) and the parallel library
// (internal/core) share it, which is what guarantees that files written by
// one are readable by the other — the property the paper relies on when it
// keeps "the original netCDF file format (version 3)".
package cdf

import (
	"fmt"
	"slices"
	"sort"

	"pnetcdf/internal/nctype"
)

// Dim is a named dimension. Len == 0 marks the unlimited (record) dimension.
type Dim struct {
	Name string
	Len  int64
}

// IsUnlimited reports whether d is the record dimension.
func (d Dim) IsUnlimited() bool { return d.Len == nctype.UnlimitedDim }

// Attr is an attribute: a name plus a small typed vector. Values holds the
// external (big-endian) representation; Nelems is the number of values.
type Attr struct {
	Name   string
	Type   nctype.Type
	Nelems int64
	Values []byte
}

// Var describes one variable: its shape (dimension IDs into the header's
// dimension list), attributes, external type, and file layout (Begin offset
// and VSize, the per-record or whole-array external size).
type Var struct {
	Name   string
	DimIDs []int
	Attrs  []Attr
	Type   nctype.Type

	// VSize is the external size in bytes of the variable's fixed part: the
	// whole array for fixed variables, one record for record variables.
	// It includes the classic format's padding to a 4-byte boundary except
	// in the single-record-variable special case.
	VSize int64
	// Begin is the file offset of the variable's first byte.
	Begin int64
}

// Header is the in-memory model of a classic-format file header.
//
// Dims and Vars may be read, built as literals and appended to freely; the
// libraries change a header through the define methods (define.go), which
// keep the name indexes behind FindDim and FindVar current.
//
// A header cuts its dimension-ID lists, attribute lists and attribute values
// from slabs it owns. Each list is cut to its own capacity, so appending to
// one never reaches another. A Header must not be copied by value: the copy
// would share the slabs' free space, and the two would hand the same
// elements out twice. Clone makes an independent header.
type Header struct {
	// Version is 1 (CDF-1), 2 (CDF-2) or 5 (CDF-5).
	Version int
	// NumRecs is the current number of records along the unlimited dimension.
	NumRecs int64
	Dims    []Dim
	GAttrs  []Attr
	Vars    []Var

	dimIdx, varIdx nameIndex

	ids   arena[int]
	attrs arena[Attr]
	vals  arena[byte]
}

func (h *Header) dimName(i int) string { return h.Dims[i].Name }
func (h *Header) varName(i int) string { return h.Vars[i].Name }

// AddDim appends a dimension and returns its ID, unchecked (DefDim checks).
func (h *Header) AddDim(d Dim) int {
	h.Dims = append(h.Dims, d)
	h.dimIdx.extend(len(h.Dims), h.dimName)
	return len(h.Dims) - 1
}

// AddVar appends a variable and returns its ID, unchecked (DefVar checks,
// and copies the dimension IDs into the header). The list doubles when full:
// append's 1.25x steps would copy a list of thousands five times over, and a
// Var is the largest thing a header holds many of.
func (h *Header) AddVar(v Var) int {
	if len(h.Vars) == cap(h.Vars) {
		h.Vars = slices.Grow(h.Vars, max(len(h.Vars), 1))
	}
	h.Vars = append(h.Vars, v)
	h.varIdx.extend(len(h.Vars), h.varName)
	return len(h.Vars) - 1
}

// UnlimitedDimID returns the index of the record dimension, or -1.
func (h *Header) UnlimitedDimID() int {
	for i, d := range h.Dims {
		if d.IsUnlimited() {
			return i
		}
	}
	return -1
}

// IsRecordVar reports whether variable v uses the unlimited dimension.
// Per the classic format, the unlimited dimension may only appear as the
// first (most significant) dimension.
func (h *Header) IsRecordVar(v *Var) bool {
	return len(v.DimIDs) > 0 && h.Dims[v.DimIDs[0]].IsUnlimited()
}

// VarShape returns the dimension lengths of v in defined order. The record
// dimension, if present, is reported with the current NumRecs.
func (h *Header) VarShape(v *Var) []int64 {
	shape := make([]int64, len(v.DimIDs))
	for i, id := range v.DimIDs {
		if h.Dims[id].IsUnlimited() {
			shape[i] = h.NumRecs
		} else {
			shape[i] = h.Dims[id].Len
		}
	}
	return shape
}

// FindDim returns the ID of the dimension with the given name, or -1.
func (h *Header) FindDim(name string) int {
	if id, ok := h.dimIdx.lookup(name); ok && id < len(h.Dims) && h.Dims[id].Name == name {
		return id
	}
	for i := h.dimIdx.n; i < len(h.Dims); i++ {
		if h.Dims[i].Name == name {
			return i
		}
	}
	return -1
}

// FindVar returns the ID of the variable with the given name, or -1. It
// only reads the header, so concurrent lookups are safe.
func (h *Header) FindVar(name string) int {
	if id, ok := h.varIdx.lookup(name); ok && id < len(h.Vars) && h.Vars[id].Name == name {
		return id
	}
	for i := h.varIdx.n; i < len(h.Vars); i++ {
		if h.Vars[i].Name == name {
			return i
		}
	}
	return -1
}

// FindAttr returns the index of the named attribute in attrs, or -1.
func FindAttr(attrs []Attr, name string) int {
	for i := range attrs {
		if attrs[i].Name == name {
			return i
		}
	}
	return -1
}

// NumRecVars counts the record variables.
func (h *Header) NumRecVars() int {
	n := 0
	for i := range h.Vars {
		if h.IsRecordVar(&h.Vars[i]) {
			n++
		}
	}
	return n
}

// RecSize returns the external size of one full record: the sum of the
// per-record sizes of all record variables, honoring the classic format's
// single-record-variable special case (no inter-record padding).
func (h *Header) RecSize() int64 {
	var total int64
	for i := range h.Vars {
		if h.IsRecordVar(&h.Vars[i]) {
			total += h.Vars[i].VSize
		}
	}
	return total
}

// Clone returns a deep copy of the header (Redef keeps one to relocate data
// from). Its lists and values are copied into slabs of its own, each made
// once at exactly the size it needs.
func (h *Header) Clone() *Header {
	nids, nattrs, nvals := 0, len(h.GAttrs), attrBytes(h.GAttrs)
	for i := range h.Vars {
		nids += len(h.Vars[i].DimIDs)
		nattrs += len(h.Vars[i].Attrs)
		nvals += attrBytes(h.Vars[i].Attrs)
	}
	c := &Header{Version: h.Version, NumRecs: h.NumRecs, Dims: slices.Clone(h.Dims)}
	c.ids.free = make([]int, nids)
	c.attrs.free = make([]Attr, nattrs)
	c.vals.free = make([]byte, nvals)
	c.GAttrs = c.cloneAttrs(h.GAttrs)
	c.Vars = make([]Var, len(h.Vars))
	for i, v := range h.Vars {
		v.DimIDs = cloneInto(&c.ids, v.DimIDs)
		v.Attrs = c.cloneAttrs(v.Attrs)
		c.Vars[i] = v
	}
	c.dimIdx, c.varIdx = h.dimIdx.clone(), h.varIdx.clone()
	return c
}

func attrBytes(as []Attr) int {
	n := 0
	for i := range as {
		n += len(as[i].Values)
	}
	return n
}

// cloneAttrs copies as, and every value in it, into h's slabs.
func (h *Header) cloneAttrs(as []Attr) []Attr {
	out := cloneInto(&h.attrs, as)
	for i := range out {
		out[i].Values = cloneInto(&h.vals, out[i].Values)
	}
	return out
}

// cloneInto copies s into a slice carved from a; nil stays nil.
func cloneInto[T any](a *arena[T], s []T) []T {
	if s == nil {
		return nil
	}
	out := a.carve(len(s), len(s))
	copy(out, s)
	return out
}

// Equal reports whether two headers describe identical datasets (same
// structure and same layout). The parallel library's define-mode
// consistency check compares Digests instead, so no header has to travel.
func (h *Header) Equal(o *Header) bool {
	if h.Version != o.Version || h.NumRecs != o.NumRecs ||
		len(h.Dims) != len(o.Dims) || len(h.GAttrs) != len(o.GAttrs) ||
		len(h.Vars) != len(o.Vars) {
		return false
	}
	for i := range h.Dims {
		if h.Dims[i] != o.Dims[i] {
			return false
		}
	}
	if !attrsEqual(h.GAttrs, o.GAttrs) {
		return false
	}
	for i := range h.Vars {
		a, b := &h.Vars[i], &o.Vars[i]
		if a.Name != b.Name || a.Type != b.Type || a.VSize != b.VSize ||
			a.Begin != b.Begin || len(a.DimIDs) != len(b.DimIDs) {
			return false
		}
		for j := range a.DimIDs {
			if a.DimIDs[j] != b.DimIDs[j] {
				return false
			}
		}
		if !attrsEqual(a.Attrs, b.Attrs) {
			return false
		}
	}
	return true
}

func attrsEqual(a, b []Attr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Type != b[i].Type ||
			a[i].Nelems != b[i].Nelems || string(a[i].Values) != string(b[i].Values) {
			return false
		}
	}
	return true
}

// Validate checks structural invariants: name validity and uniqueness, at
// most one unlimited dimension used only in the leading position, valid
// dimension IDs, and valid types for the format version.
func (h *Header) Validate() error {
	if h.Version != 1 && h.Version != 2 && h.Version != 5 {
		return fmt.Errorf("%w: version %d", nctype.ErrVersion, h.Version)
	}
	if i := h.dimIdx.firstDup(len(h.Dims), h.dimName); i >= 0 {
		return fmt.Errorf("%w: dimension %q", nctype.ErrNameInUse, h.Dims[i].Name)
	}
	if i := h.varIdx.firstDup(len(h.Vars), h.varName); i >= 0 {
		return fmt.Errorf("%w: variable %q", nctype.ErrNameInUse, h.Vars[i].Name)
	}
	unlimited := 0
	for _, d := range h.Dims {
		if err := CheckName(d.Name); err != nil {
			return err
		}
		if d.Len < 0 {
			return fmt.Errorf("%w: dimension %q length %d", nctype.ErrBadDim, d.Name, d.Len)
		}
		if d.IsUnlimited() {
			unlimited++
		}
	}
	if unlimited > 1 {
		return nctype.ErrMultiUnlimited
	}
	if err := validateAttrs(h.GAttrs, h.Version); err != nil {
		return err
	}
	for i := range h.Vars {
		v := &h.Vars[i]
		if err := CheckName(v.Name); err != nil {
			return err
		}
		if !v.Type.Valid(h.Version) {
			return fmt.Errorf("%w: variable %q type %v", nctype.ErrBadType, v.Name, v.Type)
		}
		if len(v.DimIDs) > nctype.MaxDims {
			return nctype.ErrMaxDims
		}
		for pos, id := range v.DimIDs {
			if id < 0 || id >= len(h.Dims) {
				return fmt.Errorf("%w: variable %q dimid %d", nctype.ErrBadDim, v.Name, id)
			}
			if h.Dims[id].IsUnlimited() && pos != 0 {
				return fmt.Errorf("%w: variable %q", nctype.ErrUnlimPos, v.Name)
			}
		}
		if err := validateAttrs(v.Attrs, h.Version); err != nil {
			return err
		}
	}
	return nil
}

func validateAttrs(attrs []Attr, version int) error {
	if i := firstDupUnindexed(len(attrs), func(i int) string { return attrs[i].Name }); i >= 0 {
		return fmt.Errorf("%w: attribute %q", nctype.ErrNameInUse, attrs[i].Name)
	}
	for _, a := range attrs {
		if err := CheckName(a.Name); err != nil {
			return err
		}
		if !a.Type.Valid(version) {
			return fmt.Errorf("%w: attribute %q type %v", nctype.ErrBadType, a.Name, a.Type)
		}
		if int64(len(a.Values)) != a.Nelems*int64(a.Type.Size()) {
			return fmt.Errorf("%w: attribute %q value size", nctype.ErrInvalidArg, a.Name)
		}
	}
	return nil
}

// CheckName validates a netCDF object name: nonempty, at most MaxNameLen
// bytes, beginning with a letter, digit or underscore, and containing no
// control characters, slashes, or trailing spaces.
func CheckName(name string) error {
	if name == "" || len(name) > nctype.MaxNameLen {
		return fmt.Errorf("%w: %q", nctype.ErrBadName, name)
	}
	c := name[0]
	if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
		return fmt.Errorf("%w: %q", nctype.ErrBadName, name)
	}
	for i := 0; i < len(name); i++ {
		if name[i] < 0x20 || name[i] == 0x7F || name[i] == '/' {
			return fmt.Errorf("%w: %q", nctype.ErrBadName, name)
		}
	}
	if name[len(name)-1] == ' ' {
		return fmt.Errorf("%w: %q", nctype.ErrBadName, name)
	}
	return nil
}

// SortedVarIDsByBegin returns variable IDs ordered by file offset; handy for
// layout inspection and for ncdump's data section.
func (h *Header) SortedVarIDsByBegin() []int {
	ids := make([]int, len(h.Vars))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool { return h.Vars[ids[a]].Begin < h.Vars[ids[b]].Begin })
	return ids
}
