package cdf

import (
	"fmt"

	"pnetcdf/internal/nctype"
)

// Round4 rounds n up to the next multiple of four, the classic format's
// universal alignment unit.
func Round4(n int64) int64 { return (n + 3) &^ 3 }

// VarSlotSize returns the product of a variable's non-record dimension
// lengths times the external type size — the unpadded external size of the
// fixed part of the variable (the whole array for fixed variables, one
// record for record variables).
func (h *Header) VarSlotSize(v *Var) int64 {
	size := int64(v.Type.Size())
	for pos, id := range v.DimIDs {
		if pos == 0 && h.Dims[id].IsUnlimited() {
			continue
		}
		size *= h.Dims[id].Len
	}
	return size
}

// ComputeLayout assigns VSize and Begin to every variable following the
// classic layout rules (paper Figure 1):
//
//   - fixed-size variables are placed one after another, in defined order,
//     starting immediately after the header (optionally aligned to hAlign);
//   - record variables follow the fixed ones; within one record the record
//     variables appear in defined order, and whole records repeat along the
//     unlimited dimension;
//   - every per-variable slot is padded to a 4-byte boundary, except when
//     there is exactly one record variable, in which case its records are
//     packed with no padding (the classic special case).
//
// hAlign (>= 1) allows reserving extra space after the header so the header
// can grow without moving data; PnetCDF exposes this as the
// nc_header_align_size hint.
func (h *Header) ComputeLayout(hAlign int64) error {
	return h.ComputeLayoutAligned(hAlign, 1, 0)
}

// ComputeLayoutAligned is the one place a begin is assigned. On top of the
// classic rules it starts every fixed-size variable whose VSize is at least
// vMin on a vAlign boundary; a smaller one stays packed at 4 bytes behind its
// predecessor. The two shapes callers use:
//
//   - (unit, 4*unit), unit the file system's striping unit — PnetCDF's
//     default layout. A variable of four stripes or more begins on a stripe,
//     so a collective over it pays no partial-block read-modify-write for
//     where the library put it; the padding is under a quarter of any
//     variable it is spent on, and a header full of small variables packs
//     exactly as the classic format does.
//   - (n, 0) — an explicit nc_var_align_size=n: every fixed variable on an
//     n-byte boundary; n = 1 is the classic layout, ComputeLayout's.
//
// The rule is per variable and reads nothing but the schema and the two
// numbers, so a file's bytes are a function of its logical contents and the
// striping unit alone. Record variables are never padded: their begins are
// tied to one another by the record size.
func (h *Header) ComputeLayoutAligned(hAlign, vAlign, vMin int64) error {
	if hAlign < 1 {
		hAlign = 1
	}
	if vAlign < 1 {
		vAlign = 1
	}
	nrec := h.NumRecVars()
	// First pass: per-variable slot sizes.
	for i := range h.Vars {
		v := &h.Vars[i]
		raw := h.VarSlotSize(v)
		if nrec == 1 && h.IsRecordVar(v) {
			v.VSize = raw // single record variable: records are packed
		} else {
			v.VSize = Round4(raw)
		}
		if h.Version == 1 && v.VSize > 1<<31-4 {
			return fmt.Errorf("%w: %q needs CDF-2 or CDF-5", nctype.ErrVarSize, v.Name)
		}
	}
	// Second pass: begins. Fixed variables first, in defined order.
	hdrSize := h.EncodedSize()
	offset := Round4(hdrSize)
	if r := offset % hAlign; r != 0 {
		offset += hAlign - r
	}
	for i := range h.Vars {
		v := &h.Vars[i]
		if h.IsRecordVar(v) {
			continue
		}
		if r := offset % vAlign; r != 0 && v.VSize >= vMin {
			offset += vAlign - r
		}
		v.Begin = offset
		offset += v.VSize
		if err := h.checkOffset(v); err != nil {
			return err
		}
	}
	// Record variables: their Begin is the offset of their slot within the
	// first record.
	for i := range h.Vars {
		v := &h.Vars[i]
		if !h.IsRecordVar(v) {
			continue
		}
		v.Begin = offset
		offset += v.VSize
		if err := h.checkOffset(v); err != nil {
			return err
		}
	}
	return nil
}

func (h *Header) checkOffset(v *Var) error {
	if h.Version == 1 && v.Begin > 1<<31-1 {
		return fmt.Errorf("%w: %q begin offset needs CDF-2 or CDF-5", nctype.ErrVarSize, v.Name)
	}
	return nil
}

// DataStart returns the file offset of the first data byte (the smallest
// Begin), or the encoded header size if there are no variables.
func (h *Header) DataStart() int64 {
	start := int64(-1)
	for i := range h.Vars {
		if start < 0 || h.Vars[i].Begin < start {
			start = h.Vars[i].Begin
		}
	}
	if start < 0 {
		return Round4(h.EncodedSize())
	}
	return start
}

// RecordStart returns the file offset where the record section begins: the
// Begin of the first record variable, or the end of the fixed section if
// there are no record variables.
func (h *Header) RecordStart() int64 {
	start := int64(-1)
	for i := range h.Vars {
		v := &h.Vars[i]
		if h.IsRecordVar(v) && (start < 0 || v.Begin < start) {
			start = v.Begin
		}
	}
	if start >= 0 {
		return start
	}
	return h.FixedEnd()
}

// FixedEnd returns the end offset of the fixed-variable section.
func (h *Header) FixedEnd() int64 {
	end := Round4(h.EncodedSize())
	for i := range h.Vars {
		v := &h.Vars[i]
		if !h.IsRecordVar(v) && v.Begin+v.VSize > end {
			end = v.Begin + v.VSize
		}
	}
	return end
}

// FileSize returns the total external size of the file given the current
// number of records.
func (h *Header) FileSize() int64 {
	size := h.FixedEnd()
	if h.NumRecVars() > 0 {
		rs := h.RecordStart()
		size = rs + h.NumRecs*h.RecSize()
	}
	return size
}

// RecordOffset returns the file offset of record rec of record variable v.
func (h *Header) RecordOffset(v *Var, rec int64) int64 {
	return v.Begin + rec*h.RecSize()
}
