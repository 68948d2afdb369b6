package cdf

import "pnetcdf/internal/nctype"

// Front is the netCDF API front the serial and the parallel library share
// (paper §4.1: PnetCDF keeps the serial library's dataset, define, attribute
// and inquiry functions, with the same syntax and meaning). Each library's
// Dataset embeds one and adds its data path and the I/O of its mode
// transitions (Sync, Close, and carrying out the plan EndDef returns). What
// each mode admits, that a data-mode header change is committed at once, and
// what leaving define mode moves and fills are decided here.
type Front struct {
	Hdr  *Header
	Mode mode
	// rewrite commits the header after a data-mode change: the one thing
	// the two libraries do differently here.
	rewrite func() error
	// old is the header Redef started from, nil in the define mode Create
	// opens: EndDef relocates from it and fills what was defined since.
	old *Header
}

// mode is the state the mode checks read. A library flips Define at
// EndDef/Redef and Closed at Close.
type mode struct {
	Define   bool // in define mode
	ReadOnly bool // opened without nctype.Write
	Closed   bool
}

// checkWrite admits a call that may change the header: the dataset is open
// and writable.
func (m *mode) checkWrite() error {
	switch {
	case m.Closed:
		return nctype.ErrClosed
	case m.ReadOnly:
		return nctype.ErrPerm
	}
	return nil
}

// checkDefine admits a definition: the dataset is open, writable and in
// define mode.
func (m *mode) checkDefine() error {
	if err := m.checkWrite(); err != nil {
		return err
	}
	if !m.Define {
		return nctype.ErrNotInDefine
	}
	return nil
}

// CheckData admits a data access: the dataset is open and in data mode.
func (m *mode) CheckData() error {
	switch {
	case m.Closed:
		return nctype.ErrClosed
	case m.Define:
		return nctype.ErrInDefine
	}
	return nil
}

// CreateFront is the front of a dataset Create has just made: an empty
// header in define mode, CDF-5 when cmode has nctype.Bit64Data, CDF-2 when
// it has nctype.Bit64Offset, CDF-1 otherwise. rewrite is the library's
// data-mode header commit.
func CreateFront(cmode int, rewrite func() error) Front {
	version := 1
	if cmode&nctype.Bit64Offset != 0 {
		version = 2
	}
	if cmode&nctype.Bit64Data != 0 {
		version = 5
	}
	return Front{Hdr: &Header{Version: version}, Mode: mode{Define: true}, rewrite: rewrite}
}

// OpenFront is the front of a dataset Open has read header h of: in data
// mode, read-only unless omode has nctype.Write.
func OpenFront(h *Header, omode int, rewrite func() error) Front {
	return Front{Hdr: h, Mode: mode{ReadOnly: omode&nctype.Write == 0}, rewrite: rewrite}
}

// Header exposes the header (read-only use: inquiry, dumps). In the
// parallel library it is this process's copy, kept identical to the others'
// by the collective define-mode calls.
func (f *Front) Header() *Header { return f.Hdr }

// --- Inquiry: purely local, no file access or synchronization (paper §4.3) ---

// NumDims returns the number of dimensions.
func (f *Front) NumDims() int { return len(f.Hdr.Dims) }

// NumVars returns the number of variables.
func (f *Front) NumVars() int { return len(f.Hdr.Vars) }

// NumRecs returns the record count as this process sees it (in the parallel
// library, collective calls and Sync keep it agreed across processes).
func (f *Front) NumRecs() int64 { return f.Hdr.NumRecs }

// UnlimitedDimID returns the record dimension's ID, or -1.
func (f *Front) UnlimitedDimID() int { return f.Hdr.unlimitedDimID() }

// DimID looks a dimension up by name (-1 if absent).
func (f *Front) DimID(name string) int { return f.Hdr.FindDim(name) }

// VarID looks a variable up by name (-1 if absent).
func (f *Front) VarID(name string) int { return f.Hdr.FindVar(name) }

// InqDim returns a dimension's name and length.
func (f *Front) InqDim(dimid int) (string, int64, error) {
	if dimid < 0 || dimid >= len(f.Hdr.Dims) {
		return "", 0, nctype.ErrNotDim
	}
	dim := f.Hdr.Dims[dimid]
	return dim.Name, dim.Len, nil
}

// InqVar returns a variable's name, type and dimension IDs. The IDs are the
// list the header keeps, cut to its length: the caller must not write to it,
// and it reads the same for as long as the header lives.
func (f *Front) InqVar(varid int) (string, nctype.Type, []int, error) {
	v, err := f.Hdr.VarByID(varid)
	if err != nil {
		return "", 0, nil, err
	}
	n := len(v.DimIDs)
	return v.Name, v.Type, v.DimIDs[:n:n], nil
}

// VarShape returns a variable's current dimension lengths (the record
// dimension's is NumRecs).
func (f *Front) VarShape(varid int) ([]int64, error) {
	v, err := f.Hdr.VarByID(varid)
	if err != nil {
		return nil, err
	}
	return f.Hdr.VarShape(v), nil
}

// GetAttr returns an attribute's type and decoded value ([]byte for Char,
// typed slices otherwise). Purely local, one of PnetCDF's advantages over
// HDF5's dispersed metadata (paper §4.3).
func (f *Front) GetAttr(varid int, name string) (nctype.Type, any, error) {
	if f.Mode.Closed {
		return 0, nil, nctype.ErrClosed
	}
	return f.Hdr.getAttr(varid, name)
}

// AttrNames lists an object's attribute names in definition order.
func (f *Front) AttrNames(varid int) ([]string, error) { return f.Hdr.attrNames(varid) }

// --- Define, attribute and rename calls (the rules are define.go's) ---
//
// In the parallel library these are collective: every process calls them
// with identical arguments, and a data-mode change is committed by all.

// DefDim defines a dimension; size 0 declares the unlimited dimension.
func (f *Front) DefDim(name string, size int64) (int, error) {
	if err := f.Mode.checkDefine(); err != nil {
		return -1, err
	}
	return f.Hdr.defDim(name, size)
}

// DefVar defines a variable over previously defined dimensions.
func (f *Front) DefVar(name string, t nctype.Type, dimids []int) (int, error) {
	if err := f.Mode.checkDefine(); err != nil {
		return -1, err
	}
	return f.Hdr.defVar(name, t, dimids)
}

// PutAttr sets an attribute of a variable (or GlobalID). In data mode only
// overwrites of equal or smaller size are allowed (the classic rule), and
// they rewrite the header.
func (f *Front) PutAttr(varid int, name string, t nctype.Type, value any) error {
	if err := f.Mode.checkWrite(); err != nil {
		return err
	}
	return f.commitIf(f.Hdr.putAttr(varid, name, t, value, f.Mode.Define))
}

// DelAttr removes an attribute (define mode only).
func (f *Front) DelAttr(varid int, name string) error {
	if err := f.Mode.checkDefine(); err != nil {
		return err
	}
	return f.Hdr.delAttr(varid, name)
}

// RenameDim renames a dimension. In data mode the new name may not be
// longer than the old (the header must not grow), and the header is
// rewritten.
func (f *Front) RenameDim(dimid int, newName string) error {
	if err := f.Mode.checkWrite(); err != nil {
		return err
	}
	return f.commitIf(f.Hdr.renameDim(dimid, newName, f.Mode.Define))
}

// RenameVar renames a variable under RenameDim's rules.
func (f *Front) RenameVar(varid int, newName string) error {
	if err := f.Mode.checkWrite(); err != nil {
		return err
	}
	return f.commitIf(f.Hdr.renameVar(varid, newName, f.Mode.Define))
}

// RenameAttr renames an attribute of varid (or GlobalID) under RenameDim's
// rules.
func (f *Front) RenameAttr(varid int, oldName, newName string) error {
	if err := f.Mode.checkWrite(); err != nil {
		return err
	}
	return f.commitIf(f.Hdr.renameAttr(varid, oldName, newName, f.Mode.Define))
}

// commitIf rewrites the header when a data-mode change asks for it.
func (f *Front) commitIf(rewrite bool, err error) error {
	if err != nil || !rewrite {
		return err
	}
	return f.rewrite()
}

// --- Mode transitions: what they decide (the libraries do the I/O) ---

// Redef re-enters define mode and snapshots the header for EndDef. settle,
// when not nil, runs between the mode checks and the snapshot: the parallel
// library agrees on and persists the record count there.
func (f *Front) Redef(settle func() error) error {
	if err := f.Mode.checkWrite(); err != nil {
		return err
	}
	if f.Mode.Define {
		return nctype.ErrInDefine
	}
	if settle != nil {
		if err := settle(); err != nil {
			return err
		}
	}
	f.old = f.Hdr.clone()
	f.Mode.Define = true
	return nil
}

// endPlan is the I/O leaving define mode takes, in order: the moves that
// carry existing data to the new layout (Move.Copy each), the header commit,
// and, in fill mode, Fill.
type endPlan struct {
	Moves []Move
	hdr   *Header
	// fillFrom is the first variable this define mode added: Redef's
	// snapshot's variable count, 0 after Create. Variables are matched by
	// index, as relocationPlan matches them, so a renamed one keeps its data.
	fillFrom int
}

// EndDef validates the header, lays it out under
// computeLayoutAligned(hAlign, vAlign, vMin) and leaves define mode,
// returning what the library must write. agree, when not nil, runs once the
// layout is computed and before the mode changes: the parallel library's
// check that every process built the same header. Any error leaves the
// dataset in define mode with its snapshot, so EndDef can be called again.
func (f *Front) EndDef(hAlign, vAlign, vMin int64, agree func() error) (endPlan, error) {
	if err := f.Mode.checkDefine(); err != nil {
		return endPlan{}, err
	}
	if err := f.Hdr.Validate(); err != nil {
		return endPlan{}, err
	}
	if err := f.Hdr.computeLayoutAligned(hAlign, vAlign, vMin); err != nil {
		return endPlan{}, err
	}
	if agree != nil {
		if err := agree(); err != nil {
			return endPlan{}, err
		}
	}
	p := endPlan{hdr: f.Hdr}
	if f.old != nil {
		p.Moves = f.Hdr.relocationPlan(f.old)
		p.fillFrom = len(f.old.Vars)
		f.old = nil
	}
	f.Mode.Define = false
	return p, nil
}

// Fill writes fill values over every fixed variable this define mode added,
// padding included, through writeAt in pieces of at most 1 MiB. Record
// variables are not filled here: the serial library fills records as they
// are added, the parallel one leaves them to the caller.
func (p endPlan) Fill(writeAt func(b []byte, off int64) error) error {
	const piece = 1 << 20
	for i := p.fillFrom; i < len(p.hdr.Vars); i++ {
		v := &p.hdr.Vars[i]
		if p.hdr.IsRecordVar(v) {
			continue
		}
		esz := int64(v.Type.Size())
		fill := FillBytes(v, min(v.VSize, piece)/esz)
		for at := int64(0); at < v.VSize; at += int64(len(fill)) {
			if err := writeAt(fill[:min(v.VSize-at, int64(len(fill)))], v.Begin+at); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- What both data paths ask of the header ---

// VarByID returns variable varid.
func (h *Header) VarByID(varid int) (*Var, error) {
	if varid < 0 || varid >= len(h.Vars) {
		return nil, nctype.ErrNotVar
	}
	return &h.Vars[varid], nil
}

// WholeVar returns the (start, count) of all of variable varid. A record
// variable with no records yet takes its record count from data's length.
func (h *Header) WholeVar(varid int, data any) (start, count []int64, err error) {
	v, err := h.VarByID(varid)
	if err != nil {
		return nil, nil, err
	}
	count = h.VarShape(v)
	if h.IsRecordVar(v) && len(count) > 0 && count[0] == 0 {
		inner := int64(1)
		for _, s := range count[1:] {
			inner *= s
		}
		if inner > 0 {
			count[0] = int64(SliceLen(data)) / inner
		}
	}
	return make([]int64, len(count)), count, nil
}

// OnesLike returns a count of one element along each dimension of index:
// the count of a single-element access.
func OnesLike(index []int64) []int64 {
	ones := make([]int64, len(index))
	for i := range ones {
		ones[i] = 1
	}
	return ones
}
