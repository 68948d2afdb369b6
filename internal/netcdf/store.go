// Package netcdf is a serial netCDF (classic format) library: the baseline
// the paper compares PnetCDF against, and the library a single process would
// use in the paper's Figure 2(a)/(b) scenarios. It implements the five
// function families of the original API — dataset, define mode, attribute,
// inquiry, and data access (var1 / var / vara / vars / varm) — over any
// random-access Store, with a user-space page cache standing in for the
// original library's buffering layer.
package netcdf

import (
	"container/list"
	"errors"
	"io"
	"os"
)

// Store is the random-access backend a Dataset runs on: a real *os.File (see
// OSStore), the simulated parallel file system's serial adapter
// (pfs.SerialFile), or an in-memory buffer (MemStore).
type Store interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Size() (int64, error)
	Truncate(int64) error
	Sync() error
	Close() error
}

// OSStore adapts an *os.File to Store.
type OSStore struct{ F *os.File }

// ReadAt reads, zero-filling past EOF (netCDF semantics for unwritten
// data). Only io.EOF is translated into zero-fill; genuine I/O errors
// propagate to the caller instead of being silently swallowed.
func (s OSStore) ReadAt(p []byte, off int64) (int, error) {
	n, err := s.F.ReadAt(p, off)
	if err == io.EOF {
		for i := n; i < len(p); i++ {
			p[i] = 0
		}
		return len(p), nil
	}
	return n, err
}

// WriteAt writes through to the file.
func (s OSStore) WriteAt(p []byte, off int64) (int, error) { return s.F.WriteAt(p, off) }

// Size stats the file.
func (s OSStore) Size() (int64, error) {
	fi, err := s.F.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// Truncate resizes the file.
func (s OSStore) Truncate(n int64) error { return s.F.Truncate(n) }

// Sync flushes the file.
func (s OSStore) Sync() error { return s.F.Sync() }

// Close closes the file.
func (s OSStore) Close() error { return s.F.Close() }

// MemStore is an in-memory Store for tests and tools.
type MemStore struct{ Data []byte }

// ReadAt reads, zero-filling beyond the current size.
func (m *MemStore) ReadAt(p []byte, off int64) (int, error) {
	for i := range p {
		p[i] = 0
	}
	if off < int64(len(m.Data)) {
		copy(p, m.Data[off:])
	}
	return len(p), nil
}

// WriteAt writes, growing the buffer as needed.
func (m *MemStore) WriteAt(p []byte, off int64) (int, error) {
	if need := off + int64(len(p)); need > int64(len(m.Data)) {
		grown := make([]byte, need)
		copy(grown, m.Data)
		m.Data = grown
	}
	copy(m.Data[off:], p)
	return len(p), nil
}

// Size returns the buffer length.
func (m *MemStore) Size() (int64, error) { return int64(len(m.Data)), nil }

// Truncate resizes the buffer.
func (m *MemStore) Truncate(n int64) error {
	if n <= int64(len(m.Data)) {
		m.Data = m.Data[:n]
		return nil
	}
	grown := make([]byte, n)
	copy(grown, m.Data)
	m.Data = grown
	return nil
}

// Sync is a no-op.
func (m *MemStore) Sync() error { return nil }

// Close is a no-op.
func (m *MemStore) Close() error { return nil }

// pageCache is a write-back LRU page cache between the Dataset and its
// Store — the serial library's "own buffering mechanism in user space" the
// paper mentions. It coalesces the library's many small accesses into
// page-sized store transfers.
type pageCache struct {
	store    Store
	pageSize int64
	capacity int

	pages map[int64]*list.Element // page index -> lru element
	lru   *list.List              // front = most recent
}

type cachePage struct {
	idx   int64
	data  []byte
	dirty bool
}

// readFull reads len(p) bytes at off, looping on short reads — a store may
// legally return n < len(p) with a nil error (as a real file system under
// load does), and a call site that ignores the count reads garbage in the
// unfilled tail. A read that makes no progress fails rather than spinning.
func readFull(s Store, p []byte, off int64) error {
	for len(p) > 0 {
		n, err := s.ReadAt(p, off)
		if err != nil {
			return err
		}
		if n <= 0 {
			return io.ErrNoProgress
		}
		p = p[n:]
		off += int64(n)
	}
	return nil
}

// writeFull writes len(p) bytes at off, looping on short writes.
func writeFull(s Store, p []byte, off int64) error {
	for len(p) > 0 {
		n, err := s.WriteAt(p, off)
		if err != nil {
			return err
		}
		if n <= 0 {
			return io.ErrShortWrite
		}
		p = p[n:]
		off += int64(n)
	}
	return nil
}

func newPageCache(store Store, pageSize int64, capacity int) *pageCache {
	if pageSize < 512 {
		pageSize = 512
	}
	if capacity < 2 {
		capacity = 2
	}
	return &pageCache{
		store: store, pageSize: pageSize, capacity: capacity,
		pages: map[int64]*list.Element{}, lru: list.New(),
	}
}

func (c *pageCache) page(idx int64) (*cachePage, error) {
	if el, ok := c.pages[idx]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*cachePage), nil
	}
	if len(c.pages) >= c.capacity {
		if err := c.evictOne(); err != nil {
			return nil, err
		}
	}
	p := &cachePage{idx: idx, data: make([]byte, c.pageSize)}
	if err := readFull(c.store, p.data, idx*c.pageSize); err != nil {
		return nil, err
	}
	c.pages[idx] = c.lru.PushFront(p)
	return p, nil
}

func (c *pageCache) evictOne() error {
	el := c.lru.Back()
	if el == nil {
		return errors.New("netcdf: page cache corrupt")
	}
	p := el.Value.(*cachePage)
	if p.dirty {
		if err := writeFull(c.store, p.data, p.idx*c.pageSize); err != nil {
			return err
		}
	}
	c.lru.Remove(el)
	delete(c.pages, p.idx)
	return nil
}

// ReadAt fills p from the cached view of the store.
func (c *pageCache) ReadAt(p []byte, off int64) error {
	// Large reads bypass the cache (but must see dirty pages): flush the
	// overlap first, then read straight from the store.
	if int64(len(p)) >= 4*c.pageSize {
		if err := c.flushRange(off, int64(len(p))); err != nil {
			return err
		}
		return readFull(c.store, p, off)
	}
	for len(p) > 0 {
		idx := off / c.pageSize
		pOff := off % c.pageSize
		n := c.pageSize - pOff
		if n > int64(len(p)) {
			n = int64(len(p))
		}
		pg, err := c.page(idx)
		if err != nil {
			return err
		}
		copy(p[:n], pg.data[pOff:pOff+n])
		p = p[n:]
		off += n
	}
	return nil
}

// WriteAt writes p through the cache (write-back).
func (c *pageCache) WriteAt(p []byte, off int64) error {
	// Large aligned writes bypass the cache; overlapping pages must be
	// dropped (they would otherwise resurrect stale data).
	if int64(len(p)) >= 4*c.pageSize {
		return c.writeThrough(p, off)
	}
	for len(p) > 0 {
		idx := off / c.pageSize
		pOff := off % c.pageSize
		n := c.pageSize - pOff
		if n > int64(len(p)) {
			n = int64(len(p))
		}
		pg, err := c.page(idx)
		if err != nil {
			return err
		}
		copy(pg.data[pOff:pOff+n], p[:n])
		pg.dirty = true
		p = p[n:]
		off += n
	}
	return nil
}

// writeThrough writes p straight to the store after dropping the cache's
// view of the range; dirty pages the range only partly covers are flushed
// first, not dropped.
func (c *pageCache) writeThrough(p []byte, off int64) error {
	if err := c.discardRange(off, int64(len(p))); err != nil {
		return err
	}
	return writeFull(c.store, p, off)
}

func (c *pageCache) flushRange(off, n int64) error {
	first, last := off/c.pageSize, (off+n-1)/c.pageSize
	for idx := first; idx <= last; idx++ {
		if el, ok := c.pages[idx]; ok {
			p := el.Value.(*cachePage)
			if p.dirty {
				if err := writeFull(c.store, p.data, p.idx*c.pageSize); err != nil {
					return err
				}
				p.dirty = false
			}
		}
	}
	return nil
}

func (c *pageCache) discardRange(off, n int64) error {
	first, last := off/c.pageSize, (off+n-1)/c.pageSize
	for idx := first; idx <= last; idx++ {
		if el, ok := c.pages[idx]; ok {
			p := el.Value.(*cachePage)
			// Partial overlap at the edges must be flushed, not dropped.
			pageLo, pageHi := idx*c.pageSize, (idx+1)*c.pageSize
			if pageLo < off || pageHi > off+n {
				if p.dirty {
					if err := writeFull(c.store, p.data, p.idx*c.pageSize); err != nil {
						return err
					}
				}
			}
			c.lru.Remove(el)
			delete(c.pages, idx)
		}
	}
	return nil
}

// Flush writes all dirty pages back to the store.
func (c *pageCache) Flush() error {
	for el := c.lru.Front(); el != nil; el = el.Next() {
		p := el.Value.(*cachePage)
		if p.dirty {
			if err := writeFull(c.store, p.data, p.idx*c.pageSize); err != nil {
				return err
			}
			p.dirty = false
		}
	}
	return nil
}
