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

// The one data path (DESIGN.md §3). Every put and get is an op record that
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
	req     access.Request // its vectors in d.geom, from index geom on
	geom    int
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
	return d.enqueue(true, varid, start, count, data, nil, -1)
}

// IGetVara queues a nonblocking subarray read into data, which must remain
// valid until WaitAll.
func (d *Dataset) IGetVara(varid int, start, count []int64, data any) (int, error) {
	return d.enqueue(false, varid, start, count, data, nil, -1)
}

// IPutVaraType is the flexible IPutVara (ncmpi_iput_vara): it queues a write
// of the elements of buf selected by memtype, which buf must keep unchanged
// until WaitAll.
func (d *Dataset) IPutVaraType(varid int, start, count []int64, buf any, memtype mpitype.Datatype) (int, error) {
	return d.enqueue(true, varid, start, count, buf, memtype.Runs(), memtype.Size())
}

// IGetVaraType is the flexible IGetVara (ncmpi_iget_vara): it queues a read
// scattering into the elements of buf selected by memtype.
func (d *Dataset) IGetVaraType(varid int, start, count []int64, buf any, memtype mpitype.Datatype) (int, error) {
	return d.enqueue(false, varid, start, count, buf, memtype.Runs(), memtype.Size())
}

// enqueue prepares one op (memsegs and memSize as prepare takes them) and
// leaves it in the queue for WaitAll.
func (d *Dataset) enqueue(write bool, varid int, start, count []int64, data any, memsegs []mpitype.Segment, memSize int64) (int, error) {
	if err := d.Mode.CheckData(); err != nil {
		return -1, err
	}
	op, err := d.prepare(write, varid, start, count, nil, data, memsegs, memSize)
	if err != nil {
		return -1, err
	}
	d.pending = append(d.pending, op)
	return len(d.pending) - 1, nil
}

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
	if err := d.Mode.CheckData(); err != nil {
		return err
	}
	if d.indep {
		return nctype.ErrIndepMode
	}
	return mpi.CatchRevoked(func() error { return d.complete(0, true) })
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
// moves data: it finishes d.pending[from:] — agree, write, publish a grown
// NumRecs, serve prefetch hits, read, account — and removes those ops from
// the queue whether it succeeds or not, a revocation's panic included. Blocking calls pass their own op (from = the
// queue length before it), WaitAll the whole queue (from = 0).
//
// A collective completion issues exactly one reduction. Everything a rank
// could decide differently from its peers rides in it, so a direction is
// entered by all ranks or by none, NumRecs grows on all or none, and a
// batch one rank must refuse is refused everywhere before a byte moves.
func (d *Dataset) complete(from int, collective bool) error {
	ops := d.pending[from:]
	defer func() {
		if len(ops) > 0 {
			d.geom = d.geom[:ops[0].geom] // the ops' vectors are the last in it
		}
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
	vec[agreeNumRecs], vec[agreeWriteEnd], vec[agreeRead] = d.Hdr.NumRecs, -1, 0
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
	wplan, localErr := d.plan(d.wplan, ops, true)
	rplan, err := d.plan(d.rplan, ops, false)
	d.wplan, d.rplan = wplan, rplan
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
	d.Hdr.NumRecs = max(d.Hdr.NumRecs, agreed[agreeNumRecs])
	switch {
	case localErr != nil:
		return localErr
	case agreed[agreeRead] == refuseLocal:
		return mpi.ErrPeerFailed
	case agreed[agreeRead] == refusePending:
		return nctype.ErrPending
	}
	// Record growth: collective ops grow together and persist the count once
	// the records it counts are down, as PnetCDF does, so a rank death in
	// the write leaves the file counting only records that were written;
	// independent ops grow locally and reconcile at EndIndepData/Sync.
	grown := agreed[agreeWriteEnd] > d.Hdr.NumRecs
	if grown {
		d.Hdr.NumRecs = agreed[agreeWriteEnd]
		d.numrecsDirty = d.numrecsDirty || !collective
	}
	if agreed[agreeWriteEnd] >= 0 {
		if err := d.put(ops, wplan, collective); err != nil {
			return err
		}
	}
	if grown && collective {
		d.drainAll()
		if err := d.writeNumRecs(); err != nil {
			return err
		}
	}
	for i := range ops {
		op := &ops[i]
		switch {
		case op.cached:
			op.err = d.cachedRead(op, &d.codecs[i])
		case !op.write && op.req.LastRecord >= d.Hdr.NumRecs:
			// Checked against the agreed count, after the batch's own
			// growth. The rank stays in the collective read below with
			// whatever else it has, so its peers are not left alone.
			op.err = fmt.Errorf("%w: record %d of %d", nctype.ErrEdge, op.req.LastRecord, d.Hdr.NumRecs)
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
// into a data-sieving window, or into the one request-sized buffer of an
// unsieved access); every op's NC_ERANGE is known when the write returns.
func (d *Dataset) put(ops []pendingOp, plan []piece, collective bool) error {
	sc := d.sp.Begin(span.NCPut)
	defer sc.End()
	defer d.release(ops, true)
	sEnc := d.sp.Begin(span.Encode)
	n, total, one := moving(ops, true)
	disp, view, src, err := d.fuse(ops, plan, true, one)
	sEnc.SetBytes(total)
	sEnc.End()
	if err != nil {
		return err
	}
	sView := d.sp.Begin(span.ViewResolve)
	err = d.f.SetView(disp, view)
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
	disp, view, dst, err := d.fuse(ops, plan, false, one)
	if err == nil {
		err = d.f.SetView(disp, view)
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

// plan lists, in file order and in the storage of pieces, the extents of
// the ops moving in one direction, read from their cached views, and rejects
// a batch whose extents overlap (the fused view must ascend). Fewer than two
// ops need no plan: one op fuses to itself.
func (d *Dataset) plan(pieces []piece, ops []pendingOp, write bool) ([]piece, error) {
	pieces = pieces[:0]
	if n, _, _ := moving(ops, write); n < 2 {
		return pieces, nil
	}
	for i := range ops {
		op := &ops[i]
		if !op.moves(write) {
			continue
		}
		view, err := d.fileView(op.v, op.req)
		if err != nil {
			return pieces, err
		}
		pos := int64(0)
		for _, s := range view.Runs() {
			s.Off += op.v.Begin
			pieces = append(pieces, piece{seg: s, op: i, pos: pos})
			pos += s.Len
		}
	}
	slices.SortStableFunc(pieces, func(a, b piece) int { return cmp.Compare(a.seg.Off, b.seg.Off) })
	for k := 1; k < len(pieces); k++ {
		if prev := pieces[k-1].seg; prev.Off+prev.Len > pieces[k].seg.Off {
			return pieces, fmt.Errorf("%w at offset %d", nctype.ErrOverlap, pieces[k].seg.Off)
		}
	}
	return pieces, nil
}

// fuse builds the file view this rank brings to one direction of a
// completion — its displacement and filetype — and what MPI-IO moves its
// bytes through, and points every moving op's codec at its memory. With no
// plan there is at most one op, ops[one], and fusing is the identity: the
// view is the cached view relative to the variable, at its begin, and the
// op's own codec is the source or sink — nothing is listed or sorted. With a
// plan, the extents merge in file order into one view of absolute offsets,
// built in d.fused (the next completion rebuilds it: the view lives until
// the next SetView), and d.merged, over the ops' codecs, is the source or
// sink. A rank with nothing to move gets the zero view: its share of a
// collective its peers need.
func (d *Dataset) fuse(ops []pendingOp, plan []piece, write bool, one int) (int64, mpitype.Datatype, codec, error) {
	for i := range ops {
		if ops[i].moves(write) {
			d.codecs[i].reset(&ops[i])
		}
	}
	if len(plan) == 0 {
		if one >= 0 {
			op := &ops[one]
			view, err := d.fileView(op.v, op.req)
			return op.v.Begin, view, &d.codecs[one], err
		}
		return 0, mpitype.Datatype{}, &d.merged, nil
	}
	segs := d.fused[:0]
	kept := plan[:0]
	at, end := int64(0), int64(0)
	for _, p := range plan {
		if !ops[p.op].moves(write) {
			continue // a read dropped after planning: beyond the agreed record count
		}
		p.at = at
		kept = append(kept, p)
		// Abutting extents (of different ops) merge here, so the list is a
		// flattened typemap FromSegments adopts rather than copies.
		if k := len(segs); k > 0 && segs[k-1].Off+segs[k-1].Len == p.seg.Off {
			segs[k-1].Len += p.seg.Len
		} else {
			segs = append(segs, p.seg)
		}
		at += p.seg.Len
		end = p.seg.Off + p.seg.Len
	}
	d.fused = segs
	d.merged = merged{pieces: kept, codecs: d.codecs}
	view, err := mpitype.FromSegments(segs, end)
	return 0, view, &d.merged, err
}
