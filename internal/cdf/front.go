package cdf

import "pnetcdf/internal/nctype"

// Front is the netCDF API front the serial and the parallel library share
// (paper §4.1: PnetCDF keeps the serial library's dataset, define, attribute
// and inquiry functions, with the same syntax and meaning). Each library's
// Dataset embeds one and adds its data path and its mode transitions
// (EndDef, Redef, Sync, Close); what each mode admits, and that a data-mode
// header change is committed at once, is decided here.
type Front struct {
	Hdr  *Header
	Mode Mode
	// rewrite commits the header after a data-mode change: the one thing
	// the two libraries do differently here.
	rewrite func() error
}

// Mode is the state the mode checks read. A library flips Define at
// EndDef/Redef and Closed at Close.
type Mode struct {
	Define   bool // in define mode
	ReadOnly bool // opened without nctype.Write
	Closed   bool
}

// CheckWrite admits a call that may change the header: the dataset is open
// and writable.
func (m *Mode) CheckWrite() error {
	switch {
	case m.Closed:
		return nctype.ErrClosed
	case m.ReadOnly:
		return nctype.ErrPerm
	}
	return nil
}

// CheckDefine admits a definition: the dataset is open, writable and in
// define mode.
func (m *Mode) CheckDefine() error {
	if err := m.CheckWrite(); err != nil {
		return err
	}
	if !m.Define {
		return nctype.ErrNotInDefine
	}
	return nil
}

// CheckData admits a data access: the dataset is open and in data mode.
func (m *Mode) CheckData() error {
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
	return Front{Hdr: &Header{Version: version}, Mode: Mode{Define: true}, rewrite: rewrite}
}

// OpenFront is the front of a dataset Open has read header h of: in data
// mode, read-only unless omode has nctype.Write.
func OpenFront(h *Header, omode int, rewrite func() error) Front {
	return Front{Hdr: h, Mode: Mode{ReadOnly: omode&nctype.Write == 0}, rewrite: rewrite}
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
func (f *Front) UnlimitedDimID() int { return f.Hdr.UnlimitedDimID() }

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

// InqVar returns a variable's name, type and dimension IDs.
func (f *Front) InqVar(varid int) (string, nctype.Type, []int, error) {
	v, err := f.Hdr.VarByID(varid)
	if err != nil {
		return "", 0, nil, err
	}
	return v.Name, v.Type, append([]int(nil), v.DimIDs...), nil
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
	return f.Hdr.GetAttr(varid, name)
}

// AttrNames lists an object's attribute names in definition order.
func (f *Front) AttrNames(varid int) ([]string, error) { return f.Hdr.AttrNames(varid) }

// --- Define, attribute and rename calls (the rules are define.go's) ---
//
// In the parallel library these are collective: every process calls them
// with identical arguments, and a data-mode change is committed by all.

// DefDim defines a dimension; size 0 declares the unlimited dimension.
func (f *Front) DefDim(name string, size int64) (int, error) {
	if err := f.Mode.CheckDefine(); err != nil {
		return -1, err
	}
	return f.Hdr.DefDim(name, size)
}

// DefVar defines a variable over previously defined dimensions.
func (f *Front) DefVar(name string, t nctype.Type, dimids []int) (int, error) {
	if err := f.Mode.CheckDefine(); err != nil {
		return -1, err
	}
	return f.Hdr.DefVar(name, t, dimids)
}

// PutAttr sets an attribute of a variable (or GlobalID). In data mode only
// overwrites of equal or smaller size are allowed (the classic rule), and
// they rewrite the header.
func (f *Front) PutAttr(varid int, name string, t nctype.Type, value any) error {
	if err := f.Mode.CheckWrite(); err != nil {
		return err
	}
	return f.commitIf(f.Hdr.PutAttr(varid, name, t, value, f.Mode.Define))
}

// DelAttr removes an attribute (define mode only).
func (f *Front) DelAttr(varid int, name string) error {
	if err := f.Mode.CheckDefine(); err != nil {
		return err
	}
	return f.Hdr.DelAttr(varid, name)
}

// RenameDim renames a dimension. In data mode the new name may not be
// longer than the old (the header must not grow), and the header is
// rewritten.
func (f *Front) RenameDim(dimid int, newName string) error {
	if err := f.Mode.CheckWrite(); err != nil {
		return err
	}
	return f.commitIf(f.Hdr.RenameDim(dimid, newName, f.Mode.Define))
}

// RenameVar renames a variable under RenameDim's rules.
func (f *Front) RenameVar(varid int, newName string) error {
	if err := f.Mode.CheckWrite(); err != nil {
		return err
	}
	return f.commitIf(f.Hdr.RenameVar(varid, newName, f.Mode.Define))
}

// RenameAttr renames an attribute of varid (or GlobalID) under RenameDim's
// rules.
func (f *Front) RenameAttr(varid int, oldName, newName string) error {
	if err := f.Mode.CheckWrite(); err != nil {
		return err
	}
	return f.commitIf(f.Hdr.RenameAttr(varid, oldName, newName, f.Mode.Define))
}

// commitIf rewrites the header when a data-mode change asks for it.
func (f *Front) commitIf(rewrite bool, err error) error {
	if err != nil || !rewrite {
		return err
	}
	return f.rewrite()
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
