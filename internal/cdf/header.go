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

	"pnetcdf/internal/nctype"
)

// Dim is a named dimension. Len == 0 marks the unlimited (record) dimension.
type Dim struct {
	Name string
	Len  int64
}

// IsUnlimited reports whether d is the record dimension.
func (d Dim) IsUnlimited() bool { return d.Len == nctype.UnlimitedDim }

// Var describes one variable: its shape (dimension IDs into the header's
// dimension list), attributes, external type, and file layout (Begin offset
// and VSize, the per-record or whole-array external size).
type Var struct {
	Name   string
	DimIDs []int
	Attrs  AttrList
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
// A header cuts the dimension-ID lists and attribute lists it defines from
// slabs it owns; Decode's attribute lists are the decoded buffer's bytes.
// Each list is cut to its own capacity, so appending to one never reaches
// another, and no header writes over the elements of a list it holds, so
// headers may share lists. A Header must not be copied by value: the copy
// would share the slabs' free space, and the two would hand the same
// elements out twice. clone makes a header that changes independently.
type Header struct {
	// Version is 1 (CDF-1), 2 (CDF-2) or 5 (CDF-5).
	Version int
	// NumRecs is the current number of records along the unlimited dimension.
	NumRecs int64
	Dims    []Dim
	GAttrs  AttrList
	Vars    []Var

	dimIdx, varIdx nameIndex

	ids   arena[int]
	lists arena[byte]
}

func (h *Header) dimName(i int) string { return h.Dims[i].Name }
func (h *Header) varName(i int) string { return h.Vars[i].Name }

// addDim appends a dimension and returns its ID, unchecked (DefDim checks).
func (h *Header) addDim(d Dim) int {
	h.Dims = append(h.Dims, d)
	h.dimIdx.extend(len(h.Dims), h.dimName)
	return len(h.Dims) - 1
}

// addVar appends a variable and returns its ID, unchecked (DefVar checks,
// and copies the dimension IDs into the header). The list doubles when full:
// append's 1.25x steps would copy a list of thousands five times over, and a
// Var is the largest thing a header holds many of.
func (h *Header) addVar(v Var) int {
	if len(h.Vars) == cap(h.Vars) {
		h.Vars = slices.Grow(h.Vars, max(len(h.Vars), 1))
	}
	h.Vars = append(h.Vars, v)
	h.varIdx.extend(len(h.Vars), h.varName)
	return len(h.Vars) - 1
}

// UnlimitedDimID returns the index of the record dimension, or -1.
func (h *Header) unlimitedDimID() int {
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
	if id := h.dimIdx.lookup(name, len(h.Dims), h.dimName); id >= 0 {
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
	if id := h.varIdx.lookup(name, len(h.Vars), h.varName); id >= 0 {
		return id
	}
	for i := h.varIdx.n; i < len(h.Vars); i++ {
		if h.Vars[i].Name == name {
			return i
		}
	}
	return -1
}

// numRecVars counts the record variables.
func (h *Header) numRecVars() int {
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

// clone returns a copy of the header that Redef keeps to relocate data
// from. It copies Dims, Vars and the name indexes, and shares every
// dimension-ID and attribute list with h: no header writes over the elements
// of a list it holds (setAttr), so neither header's changes reach the other.
func (h *Header) clone() *Header {
	return &Header{
		Version: h.Version, NumRecs: h.NumRecs, GAttrs: h.GAttrs,
		Dims: slices.Clone(h.Dims), Vars: slices.Clone(h.Vars),
		dimIdx: h.dimIdx.clone(), varIdx: h.varIdx.clone(),
	}
}

// Validate checks structural invariants: name validity and uniqueness, at
// most one unlimited dimension used only in the leading position, valid
// dimension IDs, and valid types for the format version. Attribute lists
// are held to the same rules where they are made — by Decode and the define
// methods, the only code that can make one — so Validate does not walk them.
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
		if err := checkName(d.Name); err != nil {
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
	for i := range h.Vars {
		v := &h.Vars[i]
		if err := checkName(v.Name); err != nil {
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
	}
	return nil
}

// checkName validates a netCDF object name: nonempty, at most MaxNameLen
// bytes, beginning with a letter, digit or underscore, and containing no
// control characters, slashes, or trailing spaces.
func checkName[S ~string | ~[]byte](name S) error {
	if len(name) == 0 || len(name) > nctype.MaxNameLen {
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
