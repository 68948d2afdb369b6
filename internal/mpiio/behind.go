package mpiio

// Write-behind (DESIGN.md §13). Every write the rank issues — a collective
// round's aggregator request, an independent request or sieve window, and a
// raw write (WriteRaw: a header commit, a numrecs publish, a fill, a
// relocation move) — settles the rank's clock when its bytes have left the
// client link (pfs.File.WriteBehind), not when the servers finish: as with a
// GPFS client's write-behind cache, the rank goes on with its next plan,
// exchange, window or commit step while the servers work. The write then
// joins the handle's FIFO of writes in flight, bounded by one budget
// whichever path issued it: the file system's client cache
// (pfs.Config.ClientCache, GPFS's pagepool). The buffer hints keep their
// ROMIO meanings — cb_buffer_size is a round's staging buffer,
// ind_wr_buffer_size a sieve window — and bound no write's flight: the
// staging buffer is free again once the write has returned, because the
// cache holds the bytes. A write that would overflow the cache first settles
// the oldest writes to their completions; a write larger than the cache by
// itself, and every write on a file system without one, is written through.
// Sync, Close and DrainWrites — which core calls ahead of every header or
// numrecs publish — settle the whole FIFO. Only the point where the clock
// takes a write's end moves: the requests, their bytes and their charges are
// the write-through ones. The FIFO holds times, not data.
//
// A raw write's steps must end in the order they were issued, so a commit
// whose magic is written last is not down before its body. One rule keeps
// that order: a raw write goes behind at once when every write still in
// flight lies in the one stripe it writes, where one server's queue already
// orders them; otherwise it first settles the writes in flight. A header
// within one stripe thus commits fully behind; the magic of a header across
// stripes waits for its body.
//
// A write a transient fault cut leaves the link at its last attempt (pfs
// resumes it inside the request), so backoff is always on the clock. A
// failed write is written through: its error is returned at once.

import (
	"slices"

	"pnetcdf/internal/pfs"
	"pnetcdf/internal/span"
)

// queuedWrite is one write the rank has not yet settled to its end.
type queuedWrite struct {
	left   float64 // its bytes had left the client link; the clock was settled here
	end    float64 // the servers had finished it
	bytes  int64
	stripe int64 // the one stripe it lies in, or -1 when it spans more
}

// writeQueue is a handle's FIFO of writes in flight, oldest first.
type writeQueue struct {
	q      []queuedWrite // q[head:] are in flight; q[:head] are settled
	head   int
	bytes  int64 // the bytes of q[head:]
	cache  int64 // pfs.Config.ClientCache: the most bytes q[head:] may hold
	stripe int64 // pfs.Config.StripeSize
}

// reserve makes room for n more writes in the FIFO's slice, so a collective
// of n rounds grows it at most once.
func (b *writeQueue) reserve(n int) { b.q = slices.Grow(b.q, n) }

// stripeOf returns the stripe that segs, sorted, lie in, or -1 when they
// span more than one or none.
func (b *writeQueue) stripeOf(segs []pfs.Segment) int64 {
	if len(segs) == 0 {
		return -1
	}
	lo, last := segs[0].Off, segs[len(segs)-1]
	s := lo / b.stripe
	if max(last.Off+last.Len-1, lo)/b.stripe != s {
		return -1
	}
	return s
}

// ordered reports whether a raw write lying in stripe s (-1: in more than
// one) may go behind the writes in flight: only when each of them lies in s,
// where one server's queue finishes them in issue order.
func (b *writeQueue) ordered(s int64) bool {
	for _, w := range b.q[b.head:] {
		if s < 0 || w.stripe != s {
			return false
		}
	}
	return true
}

// writeBehind issues one write of the n bytes of iov to segs from the
// rank's clock, with at most the client cache's bytes in flight once it is
// issued, and returns its issue time. round tags the drain span of a write
// that had to wait for older ones (-1 outside a collective).
func (f *File) writeBehind(segs []pfs.Segment, iov [][]byte, n int64, round int) (issued float64, err error) {
	cache := f.behind.cache
	f.drainTo(cache-n, round)
	issued = f.comm.Clock()
	left, end, err := f.pf.WriteBehind(issued, segs, iov)
	if err != nil || n > cache {
		f.settle(issued, end)
		return issued, err
	}
	f.settle(issued, left)
	f.behind.q = append(f.behind.q, queuedWrite{left: left, end: end, bytes: n, stripe: f.behind.stripeOf(segs)})
	f.behind.bytes += n
	return issued, nil
}

// drainTo settles the oldest writes in flight, in issue order, until at
// most keep bytes are left in flight. The rank's wait is one drain span of
// round (-1 outside a collective).
func (f *File) drainTo(keep int64, round int) {
	b := &f.behind
	from := f.comm.Clock()
	var bytes int64
	for ; b.head < len(b.q) && b.bytes > keep; b.head++ {
		w := b.q[b.head]
		b.bytes -= w.bytes
		bytes += w.bytes
		f.settle(w.left, w.end)
	}
	// Compact once the settled prefix is at least half the slice: the
	// entries moved are no more than those settled since the last
	// compaction, so a write is moved O(1) times however long the FIFO is.
	if b.head > 0 && 2*b.head >= len(b.q) {
		b.q = b.q[:copy(b.q, b.q[b.head:])]
		b.head = 0
	}
	if now := f.comm.Clock(); now > from {
		f.sp.Record(span.Drain, round, from, now, bytes, -1)
	}
}

// DrainWrites settles every write this rank has in flight: its clock moves
// past each one's end. Independent; core calls it on every rank ahead of the
// collective that precedes a header or numrecs publish, so the root
// publishes only after every rank's data is down.
func (f *File) DrainWrites() { f.drainTo(0, -1) }
