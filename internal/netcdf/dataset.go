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
	// Front holds the header, the define/read-only/closed state and the
	// define, attribute and inquiry calls the parallel library shares.
	cdf.Front

	store Store
	cache *pageCache
	fill  FillMode

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
	if err := store.Truncate(0); err != nil {
		return nil, err
	}
	d := &Dataset{store: store, hAlign: 1}
	d.Front = cdf.CreateFront(mode, d.writeHeader)
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
	d := &Dataset{store: store, hAlign: 1}
	d.Front = cdf.OpenFront(hdr, mode, d.writeHeader)
	for _, o := range opts {
		o(d)
	}
	if d.cache == nil {
		d.cache = newPageCache(store, 32<<10, 128)
	}
	if recovered && !d.Mode.ReadOnly {
		// Repair the torn in-place header from the journaled image.
		if err := d.writeHeader(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// EndDef leaves define mode: computes the file layout, writes the header,
// and (in Fill mode) pre-fills variables.
func (d *Dataset) EndDef() error {
	if err := d.Mode.CheckDefine(); err != nil {
		return err
	}
	if err := d.Hdr.Validate(); err != nil {
		return err
	}
	if err := d.Hdr.ComputeLayout(d.hAlign); err != nil {
		return err
	}
	d.Mode.Define = false
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
	for _, m := range d.Hdr.RelocationPlan(old) {
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
	if err := d.Mode.CheckWrite(); err != nil {
		return err
	}
	if d.Mode.Define {
		return nctype.ErrInDefine
	}
	// Capture the old layout so EndDef can relocate data if needed, and the
	// existing variable set so fill mode only fills new variables.
	d.oldLayout = d.Hdr.Clone()
	d.prevVars = map[string]bool{}
	for i := range d.Hdr.Vars {
		d.prevVars[d.Hdr.Vars[i].Name] = true
	}
	d.Mode.Define = true
	return nil
}

// writeHeader publishes the header through cdf.CommitHeader, the one
// crash-consistent commit both libraries share (internal/cdf/commit.go): a
// store Create has just truncated gets body-then-magic, any other the
// journaled rewrite Open recovers from.
func (d *Dataset) writeHeader() error {
	_, err := cdf.CommitHeader(uncached{d.cache}, d.Hdr.Encode(), d.Hdr.FileSize())
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
	if d.Mode.Closed {
		return nctype.ErrClosed
	}
	if !d.Mode.ReadOnly && !d.Mode.Define {
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
	if d.Mode.Closed {
		return nil
	}
	var errs []error
	if d.Mode.Define && !d.Mode.ReadOnly {
		errs = append(errs, d.EndDef())
	}
	errs = append(errs, d.Sync())
	d.Mode.Closed = true
	errs = append(errs, d.store.Close())
	return errors.Join(errs...)
}

// Abort closes without saving pending define-mode changes (buffered data
// is dropped, not flushed). Idempotent after Close or a prior Abort.
func (d *Dataset) Abort() error {
	if d.Mode.Closed {
		return nil
	}
	d.Mode.Closed = true
	return d.store.Close()
}
