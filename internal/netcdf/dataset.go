package netcdf

import (
	"errors"

	"pnetcdf/internal/cdf"
	"pnetcdf/internal/nctype"
)

// GlobalID is the variable ID standing for "the dataset itself" in attribute
// calls, like NC_GLOBAL.
const GlobalID = cdf.GlobalID

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

// checkWrite admits a call that may change the header: the dataset is open
// and writable.
func (d *Dataset) checkWrite() error {
	switch {
	case d.closed:
		return nctype.ErrClosed
	case d.ro:
		return nctype.ErrPerm
	}
	return nil
}

func (d *Dataset) checkDefine() error {
	if err := d.checkWrite(); err != nil {
		return err
	}
	if !d.define {
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

// The definition, attribute and rename rules are cdf.Header's (define.go),
// shared with the parallel library; what is left here is the mode check and,
// for a data-mode change, the header rewrite.

// DefDim defines a dimension; size 0 declares the unlimited dimension.
func (d *Dataset) DefDim(name string, size int64) (int, error) {
	if err := d.checkDefine(); err != nil {
		return -1, err
	}
	return d.hdr.DefDim(name, size)
}

// DefVar defines a variable over previously defined dimensions.
func (d *Dataset) DefVar(name string, t nctype.Type, dimids []int) (int, error) {
	if err := d.checkDefine(); err != nil {
		return -1, err
	}
	return d.hdr.DefVar(name, t, dimids)
}

// PutAttr sets an attribute. In data mode only overwrites of equal or
// smaller size are allowed (the classic rule), and they rewrite the header.
func (d *Dataset) PutAttr(varid int, name string, t nctype.Type, value any) error {
	if err := d.checkWrite(); err != nil {
		return err
	}
	return d.commitIf(d.hdr.PutAttr(varid, name, t, value, d.define))
}

// GetAttr returns an attribute's type and decoded value ([]byte for Char,
// typed slices otherwise).
func (d *Dataset) GetAttr(varid int, name string) (nctype.Type, any, error) {
	if d.closed {
		return 0, nil, nctype.ErrClosed
	}
	return d.hdr.GetAttr(varid, name)
}

// DelAttr removes an attribute (define mode only).
func (d *Dataset) DelAttr(varid int, name string) error {
	if err := d.checkDefine(); err != nil {
		return err
	}
	return d.hdr.DelAttr(varid, name)
}

// AttrNames lists an object's attribute names in definition order.
func (d *Dataset) AttrNames(varid int) ([]string, error) { return d.hdr.AttrNames(varid) }

// RenameDim renames a dimension. In data mode the new name must not make
// the header longer than its current on-disk size (classic rule); in define
// mode any valid new name is accepted.
func (d *Dataset) RenameDim(dimid int, newName string) error {
	if err := d.checkWrite(); err != nil {
		return err
	}
	return d.commitIf(d.hdr.RenameDim(dimid, newName, d.define))
}

// RenameVar renames a variable under the same rules as RenameDim.
func (d *Dataset) RenameVar(varid int, newName string) error {
	if err := d.checkWrite(); err != nil {
		return err
	}
	return d.commitIf(d.hdr.RenameVar(varid, newName, d.define))
}

// RenameAttr renames an attribute of varid (or GlobalID).
func (d *Dataset) RenameAttr(varid int, oldName, newName string) error {
	if err := d.checkWrite(); err != nil {
		return err
	}
	return d.commitIf(d.hdr.RenameAttr(varid, oldName, newName, d.define))
}

// commitIf rewrites the header when a data-mode change asks for it.
func (d *Dataset) commitIf(rewrite bool, err error) error {
	if err != nil || !rewrite {
		return err
	}
	return d.writeHeader()
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
	if err := d.checkWrite(); err != nil {
		return err
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
