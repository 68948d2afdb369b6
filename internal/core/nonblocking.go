package core

import (
	"cmp"
	"fmt"
	"slices"

	"pnetcdf/internal/access"
	"pnetcdf/internal/cdf"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/span"
)

// The one data path (DESIGN.md §16). Every put and get is an op record that
// prepare (data.go) fills and complete finishes. A blocking call completes
// its one op at once; IPutVara/IGetVara leave theirs in the queue and WaitAll
// completes the queue. The paper's record-variable discussion (§4.2.2)
// observes that record interleaving destroys contiguity and that collecting
// "multiple I/O requests over a number of record variables" recovers large
// transfers: complete fuses the ops it is given into one MPI-IO write and one
// read, so accesses to many variables — e.g. one record of each of 24 FLASH
// unknowns — reach the file system as one large, mostly contiguous request.
// One op fuses to itself.
//
// Every op is direct: it holds the caller's memory, and MPI-IO converts each
// piece of it as the round loop packs or scatters (codec.go). Between
// IPutVara and WaitAll the file still holds the old bytes, so IPutVara
// invalidates the local prefetched copy, and a blocking read of a variable
// with a queued write is refused with nctype.ErrPending (on every rank, see
// complete) until WaitAll lands the write.
type pendingOp struct {
	write   bool
	cached  bool // reads: served from the prefetched copy (decided by complete)
	varid   int
	v       *cdf.Var
	req     access.Request
	data    any               // user memory; its first NElems elements when memsegs == nil
	memsegs []mpitype.Segment // element runs into data; nil = contiguous
	// err is surfaced once the completion is over: NC_ERANGE from a write's
	// conversion (the wrapped values still land, as in the serial library),
	// a read's from its decode, ErrEdge for a read beyond the agreed record
	// count (the op moves nothing).
	err error
}

// moves reports whether op takes part in the file transfer of the given
// direction.
func (op *pendingOp) moves(write bool) bool {
	return op.write == write && !op.cached && (write || op.err == nil)
}

// IPutVara queues a nonblocking subarray write, with PnetCDF's iput
// contract: the op reads data when WaitAll writes it, so the slice must stay
// unchanged until WaitAll returns. Returns a request index (diagnostic only;
// WaitAll completes all requests). A conversion range error is deferred with
// the operation and surfaced by WaitAll, matching the blocking PutVara's
// return.
func (d *Dataset) IPutVara(varid int, start, count []int64, data any) (int, error) {
	return d.enqueue(true, varid, start, count, data)
}

// IGetVara queues a nonblocking subarray read into data, which must remain
// valid until WaitAll.
func (d *Dataset) IGetVara(varid int, start, count []int64, data any) (int, error) {
	return d.enqueue(false, varid, start, count, data)
}

func (d *Dataset) enqueue(write bool, varid int, start, count []int64, data any) (int, error) {
	if err := d.checkData(); err != nil {
		return -1, err
	}
	op, err := d.prepare(write, varid, start, count, nil, data, nil, -1)
	if err != nil {
		return -1, err
	}
	d.pending = append(d.pending, op)
	return len(d.pending) - 1, nil
}

// PendingRequests reports the queue length.
func (d *Dataset) PendingRequests() int { return len(d.pending) }

// WaitAll collectively completes all queued requests: one fused collective
// write followed by one fused collective read, each entered only if some
// rank has something for it. Every process must call it, even with an empty
// queue.
//
// The queue is consumed by completion — success OR error. The fused
// accesses agree their errors collectively, so on failure every rank
// returns an error with an empty queue: a caller that retries WaitAll after
// a transient fault re-runs an empty (no-op) batch instead of
// double-applying the queued writes, and Close does not wedge on
// "nonblocking requests pending" with no way to drain them.
//
// If the batch itself succeeds but a queued IPutVara converted out-of-range
// values, WaitAll returns cdf.ErrRange after completing every operation —
// the deferred form of "write wrapped values, report NC_ERANGE".
func (d *Dataset) WaitAll() error {
	if err := d.checkData(); err != nil {
		return err
	}
	if d.indep {
		return nctype.ErrIndepMode
	}
	return d.complete(0, true)
}

// Slots of the agreement vector (reduced with OpMax), and the values of
// agreeRead above "some rank reads the file".
const (
	agreeNumRecs  = iota // record count: ranks that entered with a stale one adopt the maximum
	agreeWriteEnd        // records the batch's writes reach (0 for fixed-size writes); -1 = no rank writes
	agreeRead            // 1 = some rank needs the file for a read; above that, the batch is refused
	agreeLen

	refusePending = 2 // a blocking read of a variable some rank has a queued write for
	refuseLocal   = 3 // a rank rejected its own batch (overlap)
)

// complete is the second half of every put and get, and the only code that
// moves data: it finishes d.pending[from:] — agree, grow NumRecs, write, serve
// prefetch hits, read, account — and removes those ops from the queue
// whether it succeeds or not. Blocking calls pass their own op (from = the
// queue length before it), WaitAll the whole queue (from = 0).
//
// A collective completion issues exactly one reduction. Everything a rank
// could decide differently from its peers rides in it, so a direction is
// entered by all ranks or by none, NumRecs grows on all or none, and a
// batch one rank must refuse is refused everywhere before a byte moves.
func (d *Dataset) complete(from int, collective bool) error {
	ops := d.pending[from:]
	defer func() {
		clear(ops) // drop the references to user memory
		d.pending = d.pending[:from]
	}()
	if d.codecs == nil {
		d.codecs = d.first[:]
	}
	for len(d.codecs) < len(ops) {
		d.codecs = append(d.codecs, memCodec{})
	}
	vec := d.agree[:]
	vec[agreeNumRecs], vec[agreeWriteEnd], vec[agreeRead] = d.hdr.NumRecs, -1, 0
	for i := range ops {
		op := &ops[i]
		if op.write {
			vec[agreeWriteEnd] = max(vec[agreeWriteEnd], op.req.LastRecord+1)
		} else if _, op.cached = d.cache[op.varid]; !op.cached {
			vec[agreeRead] = max(vec[agreeRead], 1)
			// A queued write this completion does not carry has not reached
			// the file: reading the variable now would return stale bytes.
			if d.pendingWrite(from, op.varid) {
				vec[agreeRead] = refusePending
			}
		}
	}
	// Overlap is found while planning, ahead of the reduction, so that the
	// rank that finds it does not leave its peers alone in the collective.
	wplan, localErr := d.plan(ops, true)
	rplan, err := d.plan(ops, false)
	if localErr == nil {
		localErr = err
	}
	if localErr != nil {
		vec[agreeRead] = refuseLocal
	}
	agreed := vec
	if collective {
		agreed = d.comm.AllreduceI64(vec, mpi.OpMax)
	}
	d.hdr.NumRecs = max(d.hdr.NumRecs, agreed[agreeNumRecs])
	switch {
	case localErr != nil:
		return localErr
	case agreed[agreeRead] == refuseLocal:
		return mpi.ErrPeerFailed
	case agreed[agreeRead] == refusePending:
		return nctype.ErrPending
	}
	// Record growth: collective ops grow together and persist the count;
	// independent ops grow locally and reconcile at EndIndepData/Sync.
	if end := agreed[agreeWriteEnd]; end > d.hdr.NumRecs {
		d.hdr.NumRecs = end
		if !collective {
			d.numrecsDirty = true
		} else if err := d.writeNumRecs(); err != nil {
			return err
		}
	}
	if agreed[agreeWriteEnd] >= 0 {
		if err := d.put(ops, wplan, collective); err != nil {
			return err
		}
	}
	for i := range ops {
		op := &ops[i]
		switch {
		case op.cached:
			op.err = d.cachedRead(op, &d.codecs[i])
		case !op.write && op.req.LastRecord >= d.hdr.NumRecs:
			// Checked against the agreed count, after the batch's own
			// growth. The rank stays in the collective read below with
			// whatever else it has, so its peers are not left alone.
			op.err = fmt.Errorf("%w: record %d of %d", nctype.ErrEdge, op.req.LastRecord, d.hdr.NumRecs)
		}
	}
	if agreed[agreeRead] != 0 {
		if err := d.get(ops, rplan, collective); err != nil {
			return err
		}
	}
	for i := range ops {
		if ops[i].err != nil {
			return ops[i].err
		}
	}
	return nil
}

// pendingWrite reports whether a queued write below index from targets varid.
func (d *Dataset) pendingWrite(from int, varid int) bool {
	for i := range d.pending[:from] {
		if d.pending[i].write && d.pending[i].varid == varid {
			return true
		}
	}
	return false
}

// recordAccess accumulates one direction's counters: ops put/get calls
// moving n bytes since start.
func (d *Dataset) recordAccess(collective bool, coll, indep, bytes, timeNs iostat.Counter, ops int, n int64, start float64) {
	if d.st == nil || ops == 0 {
		return
	}
	k := indep
	if collective {
		k = coll
	}
	d.st.Add(k, int64(ops))
	d.st.Add(bytes, n)
	d.st.AddTime(timeNs, d.comm.Clock()-start)
}

// put is the write direction of a completion: install the fused view and
// write. MPI-IO packs through the fused source, which converts each piece
// straight from user memory into the aggregator's message (or, independent,
// into mpiio's one staging buffer); every op's NC_ERANGE is known when the
// write returns.
func (d *Dataset) put(ops []pendingOp, plan []piece, collective bool) error {
	sc := d.sp.Begin(span.NCPut)
	defer sc.End()
	defer d.release(ops, true)
	sEnc := d.sp.Begin(span.Encode)
	n, total, one := moving(ops, true)
	view, src, err := d.fuse(ops, plan, true, one)
	sEnc.SetBytes(total)
	sEnc.End()
	if err != nil {
		return err
	}
	sView := d.sp.Begin(span.ViewResolve)
	err = d.f.SetView(0, view)
	sView.End()
	if err != nil {
		return err
	}
	t0 := d.comm.Clock()
	if collective {
		err = d.f.WriteAtAllFrom(0, total, src)
	} else {
		err = d.f.WriteAtFrom(0, total, src)
	}
	if err == nil {
		d.recordAccess(collective, iostat.NCCollPuts, iostat.NCIndepPuts,
			iostat.NCBytesPut, iostat.NCPutTimeNs, n, total, t0)
	}
	return err
}

// get is the read direction: install the fused view and read. MPI-IO hands
// each piece to the fused sink, which decodes it straight into user memory.
func (d *Dataset) get(ops []pendingOp, plan []piece, collective bool) error {
	sc := d.sp.Begin(span.NCGet)
	defer sc.End()
	defer d.release(ops, false)
	n, total, one := moving(ops, false)
	sView := d.sp.Begin(span.ViewResolve)
	view, dst, err := d.fuse(ops, plan, false, one)
	if err == nil {
		err = d.f.SetView(0, view)
	}
	sView.End()
	if err != nil {
		return err
	}
	t0 := d.comm.Clock()
	if collective {
		err = d.f.ReadAtAllInto(0, total, dst)
	} else {
		err = d.f.ReadAtInto(0, total, dst)
	}
	if err != nil {
		return err
	}
	d.recordAccess(collective, iostat.NCCollGets, iostat.NCIndepGets,
		iostat.NCBytesGot, iostat.NCGetTimeNs, n, total, t0)
	// Decode shares the encode phase tag: both are the external<->native
	// conversion step, which here ran as the bytes arrived.
	sDec := d.sp.Begin(span.Encode)
	sDec.SetBytes(total)
	sDec.End()
	return nil
}

// release ends a direction: each moving op's codec lets go of user memory
// and hands its first conversion error to the op.
func (d *Dataset) release(ops []pendingOp, write bool) {
	for i := range ops {
		if ops[i].moves(write) {
			ops[i].err = d.codecs[i].release()
		}
	}
	d.merged.pieces = nil
}

// moving counts the ops that take part in one direction's file transfer, sums
// their external bytes and returns the index of the last of them (the only
// one, when n is 1; -1 when n is 0).
func moving(ops []pendingOp, write bool) (n int, bytes int64, one int) {
	one = -1
	for i := range ops {
		if ops[i].moves(write) {
			bytes += ops[i].req.NElems * int64(ops[i].v.Type.Size())
			n++
			one = i
		}
	}
	return n, bytes, one
}

// piece is one file extent of one op in a multi-op direction.
type piece struct {
	seg mpitype.Segment
	op  int   // index into the completion's ops
	pos int64 // where the extent's bytes sit in the op's own request: its codec's position
	at  int64 // where they sit in the fused request (set by fuse)
}

// plan lists, in file order, the extents of the ops moving in one direction
// and rejects a batch whose extents overlap (the fused view must ascend).
// Fewer than two ops need no plan: one op fuses to itself.
func (d *Dataset) plan(ops []pendingOp, write bool) ([]piece, error) {
	n, _, _ := moving(ops, write)
	if n < 2 {
		return nil, nil
	}
	pieces := make([]piece, 0, n)
	for i := range ops {
		if !ops[i].moves(write) {
			continue
		}
		pos := int64(0)
		for _, s := range access.FileSegments(d.hdr, ops[i].v, ops[i].req) {
			pieces = append(pieces, piece{seg: s, op: i, pos: pos})
			pos += s.Len
		}
	}
	slices.SortStableFunc(pieces, func(a, b piece) int { return cmp.Compare(a.seg.Off, b.seg.Off) })
	for k := 1; k < len(pieces); k++ {
		if prev := pieces[k-1].seg; prev.Off+prev.Len > pieces[k].seg.Off {
			return nil, fmt.Errorf("%w at offset %d", nctype.ErrOverlap, pieces[k].seg.Off)
		}
	}
	return pieces, nil
}

// fuse builds the file view this rank brings to one direction of a
// completion and what MPI-IO moves its bytes through, and points every
// moving op's codec at its memory. With no plan there is at most one op,
// ops[one], and fusing is the identity: the view is the cached per-variable
// view and the op's own codec is the source or sink — nothing is listed or
// sorted. With a plan, the extents merge in file order into one view and
// d.merged, over the ops' codecs, is the source or sink. A rank with nothing
// to move gets the zero view: its share of a collective its peers need.
func (d *Dataset) fuse(ops []pendingOp, plan []piece, write bool, one int) (mpitype.Datatype, codec, error) {
	for i := range ops {
		if ops[i].moves(write) {
			d.codecs[i].reset(&ops[i])
		}
	}
	if plan == nil {
		if one >= 0 {
			op := &ops[one]
			view, err := d.fileView(op.varid, op.v, op.req)
			return view, &d.codecs[one], err
		}
		return mpitype.Datatype{}, &d.merged, nil
	}
	segs := make([]mpitype.Segment, 0, len(plan))
	kept := plan[:0]
	at, end := int64(0), int64(0)
	for _, p := range plan {
		if !ops[p.op].moves(write) {
			continue // a read dropped after planning: beyond the agreed record count
		}
		p.at = at
		kept = append(kept, p)
		segs = append(segs, p.seg)
		at += p.seg.Len
		end = p.seg.Off + p.seg.Len
	}
	d.merged = merged{pieces: kept, codecs: d.codecs}
	view, err := mpitype.FromSegments(segs, end)
	return view, &d.merged, err
}
