package mpiio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"pnetcdf/internal/bufpool"
	"pnetcdf/internal/pfs"
)

// Aggregator assembly (phase 2 of a round) is a k-way merge, after
// "Optimizing Noncontiguous Accesses in MPI-IO" (Thakur, Gropp, Lusk): each
// source's message lists its pieces of the round's window in file order — they
// are intersectRange clips of a monotone view — so the aggregator merges k
// sorted offset-length lists instead of sorting their concatenation. The
// merge reads the (off,len) wire headers in place, one cursor per source that
// sent, smallest (offset, source rank) first: O(n log k) int64 comparisons
// for n entries, and a stable result — entries with equal offsets come out in
// source-rank order, which is what fixes the outcome of overlapping writes
// (see WriteAtAll).
//
// Preconditions, checked while the merge walks and reported as
// errBadRoundMsg (into the round's error verdict, so every rank returns
// together): a message holds its count and that many header entries; every
// entry has a positive length and lies inside the aggregator's window of the
// round; a source's offsets do not descend; and the bytes after the header
// are exactly the entries' payload (write) or none (read request). A sender
// built by packWriteRound/packReadRound satisfies all of them.

// errBadRoundMsg reports a round message that breaks the two-phase wire
// format's rules; errors.Is matches it.
var errBadRoundMsg = errors.New("mpiio: malformed round message")

// mergeCursor walks one source's header. An exhausted cursor stays in
// roundMerge.cur as the record of what its source sent.
type mergeCursor struct {
	off, len int64  // the entry under the cursor
	src      int    // sending rank
	i, n     int    // index of the entry under the cursor, entry count
	first    int    // entries of lower-ranked sources: the source's slot base
	bytes    int64  // total length of the entries passed so far
	msg      []byte // count, n*(off,len), payload
}

// payload returns the bytes of the entry under the cursor: a write message
// carries its entries' bytes back to back after the header.
func (c *mergeCursor) payload() []byte {
	p := 8 + 16*c.n + int(c.bytes)
	return c.msg[p : p+int(c.len)]
}

// left is how many bytes of msg lie past the entries passed so far, counting
// each as its length in payload when the message carries any.
func (c *mergeCursor) left(payload bool) int64 {
	left := int64(len(c.msg) - 8 - 16*c.n)
	if payload {
		left -= c.bytes
	}
	return left
}

// mergeKey is a heap node: the entry under cursor ci. Cursors are created in
// source-rank order, so comparing ci breaks offset ties by source rank.
type mergeKey struct {
	off int64
	ci  int
}

func (a mergeKey) less(b mergeKey) bool {
	return a.off < b.off || a.off == b.off && a.ci < b.ci
}

// roundMerge is the merge state, reused across rounds.
type roundMerge struct {
	cur     []mergeCursor
	heap    []mergeKey // min-heap over the cursors that still hold an entry
	lo, hi  int64      // the aggregator's window this round
	payload bool       // entries carry payload bytes after the header (write)
}

// start puts a cursor on the first entry of every message in msgs (indexed
// by source rank, nil = sent nothing) and returns the total entry count.
func (m *roundMerge) start(msgs [][]byte, lo, hi int64, payload bool) (int, error) {
	k := 0
	for _, msg := range msgs {
		if msg != nil {
			k++
		}
	}
	m.cur, m.heap = slices.Grow(m.cur[:0], k), slices.Grow(m.heap[:0], k)
	m.lo, m.hi, m.payload = lo, hi, payload
	total := 0
	for src, msg := range msgs {
		if msg == nil {
			continue
		}
		if len(msg) < 8 {
			return 0, fmt.Errorf("%w: %d bytes from rank %d hold no entry count", errBadRoundMsg, len(msg), src)
		}
		count := binary.BigEndian.Uint64(msg)
		if count > uint64(len(msg)-8)/16 {
			return 0, fmt.Errorf("%w: rank %d announces %d entries in %d bytes", errBadRoundMsg, src, count, len(msg))
		}
		n := int(count)
		c := mergeCursor{off: lo, src: src, i: -1, n: n, first: total, msg: msg}
		total += n
		more, err := c.next(m)
		if err != nil {
			return 0, err
		}
		m.cur = append(m.cur, c)
		if more {
			m.heap = append(m.heap, mergeKey{off: c.off, ci: len(m.cur) - 1})
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return total, nil
}

// next moves c to its source's next entry and validates it; more is false
// once the source is exhausted, which is when its payload length is checked.
func (c *mergeCursor) next(m *roundMerge) (more bool, err error) {
	if c.i >= 0 {
		c.bytes += c.len
	}
	c.i++
	if c.i == c.n {
		if left := c.left(m.payload); left != 0 {
			return false, fmt.Errorf("%w: rank %d sent %d bytes beyond its %d entries",
				errBadRoundMsg, c.src, left, c.n)
		}
		c.msg = nil // the record that stays behind does not pin the message
		return false, nil
	}
	p := 8 + 16*c.i
	off := int64(binary.BigEndian.Uint64(c.msg[p:]))
	l := int64(binary.BigEndian.Uint64(c.msg[p+8:]))
	switch {
	case l <= 0 || off < m.lo || off > m.hi || l > m.hi-off:
		return false, fmt.Errorf("%w: entry %d of rank %d, [%d,+%d), is empty or outside the window [%d,%d)",
			errBadRoundMsg, c.i, c.src, off, l, m.lo, m.hi)
	case off < c.off:
		return false, fmt.Errorf("%w: entry %d of rank %d at %d descends below %d",
			errBadRoundMsg, c.i, c.src, off, c.off)
	case m.payload && l > c.left(true):
		return false, fmt.Errorf("%w: entry %d of rank %d claims %d payload bytes, %d remain",
			errBadRoundMsg, c.i, c.src, l, c.left(true))
	}
	c.off, c.len = off, l
	return true, nil
}

// min returns the cursor under the smallest (offset, source) entry, or nil
// when every source is exhausted.
func (m *roundMerge) min() *mergeCursor {
	if len(m.heap) == 0 {
		return nil
	}
	return &m.cur[m.heap[0].ci]
}

// advance steps the cursor min returned past its entry.
func (m *roundMerge) advance() error {
	c := &m.cur[m.heap[0].ci]
	more, err := c.next(m)
	if err != nil {
		return err
	}
	if more {
		m.heap[0].off = c.off
	} else {
		last := len(m.heap) - 1
		m.heap[0] = m.heap[last]
		m.heap = m.heap[:last]
	}
	m.siftDown(0)
	return nil
}

func (m *roundMerge) siftDown(i int) {
	h := m.heap
	if i >= len(h) {
		return
	}
	k := h[i]
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if r := child + 1; r < len(h) && h[r].less(h[child]) {
			child = r
		}
		if !h[child].less(k) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = k
}

// writeVec is an aggregator's assembled round: the merged file segments and
// an iovec whose entries are the received messages' payload bytes in place —
// the message blobs themselves are the write buffers (the zero-copy half of
// the two-phase write), so the messages must stay live until the write that
// uses them is down.
type writeVec struct {
	merge roundMerge
	segs  []pfs.Segment
	iov   [][]byte
	bytes int64
}

// assemble merges the write messages of one round, received for the window
// [lo, hi), into w.segs/w.iov: entries in (offset, source rank) order, one
// iovec entry per wire entry, file-adjacent entries coalesced into one
// segment. Overlapping entries stay separate segments in that order, so the
// later one's bytes land last.
func (w *writeVec) assemble(msgs [][]byte, lo, hi int64) error {
	w.segs, w.iov, w.bytes = w.segs[:0], w.iov[:0], 0
	n, err := w.merge.start(msgs, lo, hi, true)
	if err != nil {
		return err
	}
	w.iov = slices.Grow(w.iov, n)
	for c := w.merge.min(); c != nil; c = w.merge.min() {
		if k := len(w.segs); k > 0 && w.segs[k-1].Off+w.segs[k-1].Len == c.off {
			w.segs[k-1].Len += c.len
		} else {
			w.segs = append(w.segs, pfs.Segment{Off: c.off, Len: c.len})
		}
		w.iov = append(w.iov, c.payload())
		w.bytes += c.len
		if err := w.merge.advance(); err != nil {
			return err
		}
	}
	return nil
}

// coverage is what an aggregator reads in one round and how it is handed
// back: the merged byte ranges of everyone's requests, the pooled buffer they
// are read into, and per requesting rank the position of each of its
// requests in that buffer, in the order the rank listed them (the order its
// scatter expects): the requests of the source under merge.cur[k] are
// reqs[first:first+n], and its bytes field is the size of its reply. It
// references nothing of the request messages' memory once assembled.
type coverage struct {
	merge roundMerge
	segs  []pfs.Segment
	data  []byte
	reqs  []covReq
}

// covReq locates one request's bytes in coverage.data.
type covReq struct{ pos, len int64 }

// assemble merges the read requests of one round, received for the window
// [lo, hi), into the coverage segments (overlapping and adjacent requests
// coalesced) and records where each request will sit in the coverage buffer,
// which it then takes from the pool — dirty, the read fills every byte. The
// caller owns cov.data from here and puts it back (release). When no rank
// sent a request, or the requests do not merge, the coverage stays empty and
// holds no buffer.
func (cov *coverage) assemble(msgs [][]byte, lo, hi int64) error {
	total, err := cov.place(msgs, lo, hi)
	if err != nil {
		cov.merge.cur = cov.merge.cur[:0]
		return err
	}
	if !cov.empty() {
		// Parked in the coverage, which outlives the read it is issued for:
		// release puts it once the replies are built, on the abort path and
		// in the round loop's revocation drain.
		cov.data = bufpool.GetDirty(int(total))
	}
	return nil
}

// place runs the merge: it fills segs and reqs and returns the coverage
// buffer's size.
func (cov *coverage) place(msgs [][]byte, lo, hi int64) (total int64, err error) {
	cov.segs = cov.segs[:0]
	n, err := cov.merge.start(msgs, lo, hi, false)
	if err != nil {
		return 0, err
	}
	cov.reqs = slices.Grow(cov.reqs[:0], n)[:n]
	var segStart int64 // position of the last coverage segment in data
	for c := cov.merge.min(); c != nil; c = cov.merge.min() {
		k := len(cov.segs)
		if k > 0 && c.off <= cov.segs[k-1].Off+cov.segs[k-1].Len {
			last := &cov.segs[k-1]
			last.Len = max(last.Len, c.off+c.len-last.Off)
		} else {
			if k > 0 {
				segStart += cov.segs[k-1].Len
			}
			cov.segs = append(cov.segs, pfs.Segment{Off: c.off, Len: c.len})
			k++
		}
		cov.reqs[c.first+c.i] = covReq{pos: segStart + c.off - cov.segs[k-1].Off, len: c.len}
		if err := cov.merge.advance(); err != nil {
			return 0, err
		}
	}
	if k := len(cov.segs); k > 0 {
		segStart += cov.segs[k-1].Len
	}
	return segStart, nil
}

// empty reports whether no rank requested anything of this aggregator in the
// round the coverage was assembled for.
func (cov *coverage) empty() bool { return len(cov.merge.cur) == 0 }

// release returns the coverage buffer to the pool; a coverage that holds
// none (no requests this round, or already released) is left alone.
func (cov *coverage) release() {
	if cov.data != nil {
		bufpool.Put(cov.data)
		cov.data = nil
	}
}
