package netcdf

import (
	"errors"
	"fmt"

	"pnetcdf/internal/cdf"
	"pnetcdf/internal/nctype"
)

// GlobalID is the variable ID standing for "the dataset itself" in attribute
// calls, like NC_GLOBAL.
const GlobalID = -1

// FillMode selects whether defined variables are pre-filled with netCDF fill
// values.
type FillMode int

// Fill modes.
const (
	NoFill FillMode = iota // default, like PnetCDF
	Fill                   // pre-fill at EndDef and on record growth
)

// Dataset is an open netCDF dataset accessed through a single process.
type Dataset struct {
	store  Store
	cache  *pageCache
	hdr    *cdf.Header
	define bool // in define mode
	ro     bool
	closed bool
	fill   FillMode

	// hAlign reserves header space so later Redef calls can grow the header
	// without moving data (also a PnetCDF hint).
	hAlign int64

	// oldLayout snapshots the pre-Redef header so EndDef can relocate data
	// if definitions grew the header or added fixed variables.
	oldLayout *cdf.Header
	// prevVars names the variables that existed before the current define
	// mode (they are not re-filled on EndDef).
	prevVars map[string]bool
}

// Option tunes dataset creation/opening.
type Option func(*Dataset)

// WithFill enables netCDF prefilling.
func WithFill() Option { return func(d *Dataset) { d.fill = Fill } }

// WithHeaderAlign reserves align bytes of header space.
func WithHeaderAlign(align int64) Option { return func(d *Dataset) { d.hAlign = align } }

// WithCache overrides the page cache geometry.
func WithCache(pageSize int64, pages int) Option {
	return func(d *Dataset) { d.cache = newPageCache(d.store, pageSize, pages) }
}

// Create makes a new empty dataset on the store, entering define mode.
// mode may include nctype.Bit64Offset (CDF-2) or nctype.Bit64Data (CDF-5).
func Create(store Store, mode int, opts ...Option) (*Dataset, error) {
	version := 1
	if mode&nctype.Bit64Offset != 0 {
		version = 2
	}
	if mode&nctype.Bit64Data != 0 {
		version = 5
	}
	if err := store.Truncate(0); err != nil {
		return nil, err
	}
	d := &Dataset{
		store:  store,
		hdr:    &cdf.Header{Version: version},
		define: true,
		hAlign: 1,
	}
	for _, o := range opts {
		o(d)
	}
	if d.cache == nil {
		d.cache = newPageCache(store, 32<<10, 128)
	}
	return d, nil
}

// Open reads an existing dataset's header from the store. mode is
// nctype.NoWrite or nctype.Write.
func Open(store Store, mode int, opts ...Option) (*Dataset, error) {
	size, err := store.Size()
	if err != nil {
		return nil, err
	}
	// cdf.ReadHeader probes a growing prefix and, when the in-place header
	// is torn (a crash during a header commit), falls back to the commit
	// journal at the file's tail.
	hdr, _, recovered, err := cdf.ReadHeader(size, func(buf []byte, off int64) error {
		return readFull(store, buf, off)
	})
	if err != nil {
		return nil, err
	}
	if recovered {
		// The journaled (new) header may declare records lost with the
		// crash; clamp to what the file actually holds.
		if max := hdr.MaxRecsForSize(size); hdr.NumRecs > max {
			hdr.NumRecs = max
		}
	}
	d := &Dataset{
		store:  store,
		hdr:    hdr,
		ro:     mode&nctype.Write == 0,
		hAlign: 1,
	}
	for _, o := range opts {
		o(d)
	}
	if d.cache == nil {
		d.cache = newPageCache(store, 32<<10, 128)
	}
	if recovered && !d.ro {
		// Repair the torn in-place header from the journaled image.
		if err := d.writeHeader(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Header exposes the in-memory header (read-only use: inquiry, dumps).
func (d *Dataset) Header() *cdf.Header { return d.hdr }

func (d *Dataset) checkDefine() error {
	switch {
	case d.closed:
		return nctype.ErrClosed
	case d.ro:
		return nctype.ErrPerm
	case !d.define:
		return nctype.ErrNotInDefine
	}
	return nil
}

func (d *Dataset) checkData() error {
	switch {
	case d.closed:
		return nctype.ErrClosed
	case d.define:
		return nctype.ErrInDefine
	}
	return nil
}

// DefDim defines a dimension; size 0 declares the unlimited dimension.
func (d *Dataset) DefDim(name string, size int64) (int, error) {
	if err := d.checkDefine(); err != nil {
		return -1, err
	}
	if err := cdf.CheckName(name); err != nil {
		return -1, err
	}
	if d.hdr.FindDim(name) >= 0 {
		return -1, fmt.Errorf("%w: dimension %q", nctype.ErrNameInUse, name)
	}
	if size < 0 {
		return -1, nctype.ErrBadDim
	}
	if size == 0 && d.hdr.UnlimitedDimID() >= 0 {
		return -1, nctype.ErrMultiUnlimited
	}
	if len(d.hdr.Dims) >= nctype.MaxDims {
		// As with MaxVars below: cdf.Decode refuses a longer dim_list.
		return -1, nctype.ErrMaxDims
	}
	return d.hdr.AddDim(cdf.Dim{Name: name, Len: size}), nil
}

// DefVar defines a variable over previously defined dimensions.
func (d *Dataset) DefVar(name string, t nctype.Type, dimids []int) (int, error) {
	if err := d.checkDefine(); err != nil {
		return -1, err
	}
	if err := cdf.CheckName(name); err != nil {
		return -1, err
	}
	if d.hdr.FindVar(name) >= 0 {
		return -1, fmt.Errorf("%w: variable %q", nctype.ErrNameInUse, name)
	}
	if !t.Valid(d.hdr.Version) {
		return -1, nctype.ErrBadType
	}
	if len(d.hdr.Vars) >= nctype.MaxVars {
		// cdf.Decode refuses a longer var_list: one more variable would
		// make a file that can be written but never reopened.
		return -1, nctype.ErrMaxVars
	}
	if len(dimids) > nctype.MaxDims {
		return -1, nctype.ErrMaxDims
	}
	for pos, id := range dimids {
		if id < 0 || id >= len(d.hdr.Dims) {
			return -1, nctype.ErrBadDim
		}
		if d.hdr.Dims[id].IsUnlimited() && pos != 0 {
			return -1, nctype.ErrUnlimPos
		}
	}
	return d.hdr.AddVar(cdf.Var{
		Name: name, Type: t, DimIDs: append([]int(nil), dimids...),
	}), nil
}

// attrsOf returns the attribute list for varid (GlobalID for global
// attributes).
func (d *Dataset) attrsOf(varid int) (*[]cdf.Attr, error) {
	if varid == GlobalID {
		return &d.hdr.GAttrs, nil
	}
	if varid < 0 || varid >= len(d.hdr.Vars) {
		return nil, nctype.ErrNotVar
	}
	return &d.hdr.Vars[varid].Attrs, nil
}

// PutAttr sets an attribute. Unlike most definitions this is also legal in
// data mode if the new value is not larger than the old (classic rule); for
// simplicity we allow it only in define mode, except for overwrites of equal
// or smaller size.
func (d *Dataset) PutAttr(varid int, name string, t nctype.Type, value any) error {
	if d.closed {
		return nctype.ErrClosed
	}
	if d.ro {
		return nctype.ErrPerm
	}
	attrs, err := d.attrsOf(varid)
	if err != nil {
		return err
	}
	if err := cdf.CheckName(name); err != nil {
		return err
	}
	if !t.Valid(d.hdr.Version) {
		return nctype.ErrBadType
	}
	a, err := cdf.MakeAttr(name, t, value)
	if err != nil {
		return err
	}
	if i := cdf.FindAttr(*attrs, name); i >= 0 {
		if !d.define && len(a.Values) > len((*attrs)[i].Values) {
			return nctype.ErrNotInDefine
		}
		(*attrs)[i] = a
		if !d.define {
			return d.writeHeader()
		}
		return nil
	}
	if !d.define {
		return nctype.ErrNotInDefine
	}
	if len(*attrs) >= nctype.MaxAttrs {
		return nctype.ErrMaxAttrs
	}
	*attrs = append(*attrs, a)
	return nil
}

// GetAttr returns an attribute's type and decoded value ([]byte for Char,
// typed slices otherwise).
func (d *Dataset) GetAttr(varid int, name string) (nctype.Type, any, error) {
	if d.closed {
		return 0, nil, nctype.ErrClosed
	}
	attrs, err := d.attrsOf(varid)
	if err != nil {
		return 0, nil, err
	}
	i := cdf.FindAttr(*attrs, name)
	if i < 0 {
		return 0, nil, fmt.Errorf("%w: %q", nctype.ErrNotAtt, name)
	}
	a := (*attrs)[i]
	val, err := cdf.DecodeAttrValue(a)
	return a.Type, val, err
}

// DelAttr removes an attribute (define mode only).
func (d *Dataset) DelAttr(varid int, name string) error {
	if err := d.checkDefine(); err != nil {
		return err
	}
	attrs, err := d.attrsOf(varid)
	if err != nil {
		return err
	}
	i := cdf.FindAttr(*attrs, name)
	if i < 0 {
		return fmt.Errorf("%w: %q", nctype.ErrNotAtt, name)
	}
	*attrs = append((*attrs)[:i], (*attrs)[i+1:]...)
	return nil
}

// AttrNames lists an object's attribute names in definition order.
func (d *Dataset) AttrNames(varid int) ([]string, error) {
	attrs, err := d.attrsOf(varid)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(*attrs))
	for i, a := range *attrs {
		names[i] = a.Name
	}
	return names, nil
}

// EndDef leaves define mode: computes the file layout, writes the header,
// and (in Fill mode) pre-fills variables.
func (d *Dataset) EndDef() error {
	if err := d.checkDefine(); err != nil {
		return err
	}
	if err := d.hdr.Validate(); err != nil {
		return err
	}
	if err := d.hdr.ComputeLayout(d.hAlign); err != nil {
		return err
	}
	d.define = false
	if d.oldLayout != nil {
		if err := d.relocate(d.oldLayout); err != nil {
			return err
		}
		d.oldLayout = nil
	}
	if err := d.writeHeader(); err != nil {
		return err
	}
	if d.fill == Fill {
		if err := d.fillFixedVars(); err != nil {
			return err
		}
	}
	d.prevVars = nil
	return nil
}

// relocate moves existing variable data from its pre-Redef offsets to the
// new layout, in cdf.RelocationPlan's order.
func (d *Dataset) relocate(old *cdf.Header) error {
	buf := make([]byte, 1<<20)
	for _, m := range d.hdr.RelocationPlan(old) {
		if err := m.Copy(buf, d.cache.ReadAt, d.cache.WriteAt); err != nil {
			return err
		}
	}
	return nil
}

// Redef re-enters define mode. If subsequent definitions grow the header
// past its reserved space, EndDef moves the data (an expensive operation the
// paper calls out as a netCDF limitation).
func (d *Dataset) Redef() error {
	if d.closed {
		return nctype.ErrClosed
	}
	if d.ro {
		return nctype.ErrPerm
	}
	if d.define {
		return nctype.ErrInDefine
	}
	// Capture the old layout so EndDef can relocate data if needed, and the
	// existing variable set so fill mode only fills new variables.
	d.oldLayout = d.hdr.Clone()
	d.prevVars = map[string]bool{}
	for i := range d.hdr.Vars {
		d.prevVars[d.hdr.Vars[i].Name] = true
	}
	d.define = true
	return nil
}

// writeHeader publishes the header through cdf.CommitHeader, the one
// crash-consistent commit both libraries share (internal/cdf/commit.go): a
// store Create has just truncated gets body-then-magic, any other the
// journaled rewrite Open recovers from.
func (d *Dataset) writeHeader() error {
	_, err := cdf.CommitHeader(uncached{d.cache}, d.hdr.Encode(), d.hdr.FileSize())
	return err
}

// uncached is the store under the write-back cache, in the shape
// cdf.CommitHeader writes through: commit ordering through an LRU cache is
// undefined, so each write goes straight down (pageCache.writeThrough).
type uncached struct{ c *pageCache }

func (u uncached) Size() (int64, error)              { return u.c.store.Size() }
func (u uncached) SetSize(size int64) error          { return u.c.store.Truncate(size) }
func (u uncached) WriteAt(p []byte, off int64) error { return u.c.writeThrough(p, off) }

// Sync flushes buffered data and the current record count to the store.
func (d *Dataset) Sync() error {
	if d.closed {
		return nctype.ErrClosed
	}
	if !d.ro && !d.define {
		if err := d.writeHeader(); err != nil {
			return err
		}
	}
	if err := d.cache.Flush(); err != nil {
		return err
	}
	return d.store.Sync()
}

// Close synchronizes and closes the dataset. All teardown steps run even
// when an earlier one fails — a flush error is joined with, not masked by,
// a later successful close (and vice versa) — and the handle is marked
// closed regardless, so a second Close is an idempotent no-op rather than
// a second flush attempt.
func (d *Dataset) Close() error {
	if d.closed {
		return nil
	}
	var errs []error
	if d.define && !d.ro {
		errs = append(errs, d.EndDef())
	}
	errs = append(errs, d.Sync())
	d.closed = true
	errs = append(errs, d.store.Close())
	return errors.Join(errs...)
}

// Abort closes without saving pending define-mode changes (buffered data
// is dropped, not flushed). Idempotent after Close or a prior Abort.
func (d *Dataset) Abort() error {
	if d.closed {
		return nil
	}
	d.closed = true
	return d.store.Close()
}
