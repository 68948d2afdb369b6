package mpiio

// Write-behind (DESIGN.md §13). A data write — a collective round's
// aggregator request, or an independent request or sieve window — settles
// the rank's clock when its bytes have left the client link
// (pfs.File.WriteBehind), not when the servers finish: as with a GPFS
// client's write-behind cache, the
// rank goes on with its next plan, exchange or window while the servers
// work. The write then joins the file's FIFO of writes in flight, bounded by
// the buffer hint of the path that issued it: cb_buffer_size for a
// collective round, ind_wr_buffer_size for an independent one. A write that
// would overflow its budget first settles the oldest writes to their
// completions; a write larger than the budget by itself is written through.
// Sync, Close and DrainWrites — which core calls ahead of every header or
// numrecs publish — settle the whole FIFO, and header writes (WriteRaw) are
// written through. Only the point where the clock takes a write's end moves:
// the requests, their bytes and their charges are the write-through ones.
//
// A retried write leaves the link at its last attempt (issuePF runs the
// whole retry chain), so backoff is always on the clock. A failed write is
// written through: its error is returned at once.

import "pnetcdf/internal/span"

// queuedWrite is one data write the rank has not yet settled to its end.
type queuedWrite struct {
	left  float64 // its bytes had left the client link; the clock was settled here
	end   float64 // the servers had finished it
	bytes int64
}

// writeQueue is a file's FIFO of writes in flight, oldest first.
type writeQueue struct {
	q     []queuedWrite // q[head:] are in flight; q[:head] are settled
	head  int
	bytes int64 // the bytes of q[head:]
}

// writeBehind issues one data write of n bytes from the rank's clock, with
// at most budget bytes in flight once it is issued, and returns its issue
// time. write is one attempt at time t; it reports when the attempt's bytes
// left the link and when it completed. round tags the drain span of a write
// that had to wait for older ones (-1 outside a collective).
func (f *File) writeBehind(n, budget int64, round int,
	write func(t float64) (left, end float64, err error)) (issued float64, err error) {
	f.drainTo(budget-n, round)
	issued = f.comm.Clock()
	var left float64
	end, err := f.issuePF(issued, func(t float64) (end float64, err error) {
		left, end, err = write(t)
		return end, err
	})
	if err != nil || n > budget {
		f.settle(issued, end)
		return issued, err
	}
	f.settle(issued, left)
	f.behind.q = append(f.behind.q, queuedWrite{left: left, end: end, bytes: n})
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

// DrainWrites settles every data write this rank has in flight: its clock
// moves past each one's end. Independent; core calls it on every rank
// ahead of the collective that precedes a header or numrecs publish, so the
// root publishes only after every rank's data is down.
func (f *File) DrainWrites() { f.drainTo(0, -1) }
