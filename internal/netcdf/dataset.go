package netcdf

import (
	"errors"

	"pnetcdf/internal/cdf"
	"pnetcdf/internal/nctype"
)

// GlobalID is the variable ID standing for "the dataset itself" in attribute
// calls, like NC_GLOBAL.
const GlobalID = cdf.GlobalID

// Dataset is an open netCDF dataset accessed through a single process.
type Dataset struct {
	// Front holds the header, the define/read-only/closed state and the
	// define, attribute and inquiry calls the parallel library shares.
	cdf.Front

	store backend
	cache *pageCache
	fill  bool // pre-fill at EndDef and on record growth; off by default, like PnetCDF

	// hAlign reserves header space so later Redef calls can grow the header
	// without moving data (also a PnetCDF hint).
	hAlign int64
}

// option tunes dataset creation/opening.
type option func(*Dataset)

// WithHeaderAlign reserves align bytes of header space.
func WithHeaderAlign(align int64) option { return func(d *Dataset) { d.hAlign = align } }

// Create makes a new empty dataset on the store, entering define mode.
// mode may include nctype.Bit64Offset (CDF-2) or nctype.Bit64Data (CDF-5).
func Create(store backend, mode int, opts ...option) (*Dataset, error) {
	if err := store.Truncate(0); err != nil {
		return nil, err
	}
	d := &Dataset{store: store, hAlign: 1}
	d.Front = cdf.CreateFront(mode, d.writeHeader)
	for _, o := range opts {
		o(d)
	}
	d.cache = newPageCache(store, 32<<10, 128)
	return d, nil
}

// Open reads an existing dataset's header from the store. mode is
// nctype.NoWrite or nctype.Write.
func Open(store backend, mode int, opts ...option) (*Dataset, error) {
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
	d.cache = newPageCache(store, 32<<10, 128)
	if recovered && !d.Mode.ReadOnly {
		// Repair the torn in-place header from the journaled image.
		if err := d.writeHeader(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// EndDef leaves define mode: the front computes the file layout and the
// plan, and this library moves existing data through its page cache, writes
// the header and (in fill mode, SetFill) pre-fills the variables this define
// mode added.
func (d *Dataset) EndDef() error {
	plan, err := d.Front.EndDef(d.hAlign, 1, 0, nil)
	if err != nil {
		return err
	}
	if len(plan.Moves) > 0 {
		buf := make([]byte, 1<<20)
		for _, m := range plan.Moves {
			if err := m.Copy(buf, d.cache.readAt, d.cache.writeAt); err != nil {
				return err
			}
		}
	}
	if err := d.writeHeader(); err != nil {
		return err
	}
	if d.fill {
		return plan.Fill(d.cache.writeAt)
	}
	return nil
}

// SetFill turns prefilling on or off, like nc_set_fill: in fill mode EndDef
// fills the fixed variables each define mode adds, and growing the record
// count fills the new records.
func (d *Dataset) SetFill(on bool) { d.fill = on }

// Redef re-enters define mode. If subsequent definitions grow the header
// past its reserved space, EndDef moves the data (an expensive operation the
// paper calls out as a netCDF limitation).
func (d *Dataset) Redef() error { return d.Front.Redef(nil) }

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
	if err := d.cache.flush(); err != nil {
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
