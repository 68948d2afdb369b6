package mpiio

import (
	"encoding/binary"
	"fmt"
	"math"

	"pnetcdf/internal/bufpool"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/pfs"
	"pnetcdf/internal/span"
)

// Two-phase collective I/O, after "Data Sieving and Collective I/O in
// ROMIO" (Thakur, Gropp, Lusk), the optimization the paper credits for
// PnetCDF's performance:
//
//  1. All ranks agree on the aggregate access range [gmin, gmax).
//  2. The range is divided into per-aggregator file domains (aligned to the
//     file system stripe), and each domain is processed in rounds of at
//     most cb_buffer_size bytes.
//  3. In each round ranks exchange the pieces of their requests falling in
//     each aggregator's window (a sparse exchange: counts via Allreduce,
//     then point-to-point), and aggregators merge the pieces they received
//     (merge.go) into few large contiguous file accesses on everyone's
//     behalf. The count Allreduce is the round's only collective: it also
//     carries the error verdict on an earlier round (rounds.go), and one
//     closing agreement covers the rounds no later exchange carries.
//
// The exchange moves the real bytes; the pfs cost model rewards the
// resulting contiguity, which is where the collective-vs-independent gap in
// the paper's figures comes from.

// reqSeg is one piece of a rank's request intersected with a window.
type reqSeg struct {
	off    int64 // absolute file offset
	len    int64
	bufPos int64 // position within the caller's buffer
}

// collTagBase reserves a point-to-point tag band for collective rounds;
// collTagLimit is where the next reserved band would begin. Both exchange
// tags of a round derive directly from the round index r via roundTag —
// there is no separately incremented counter to skew — sub 0 for the
// request/payload exchange, sub 1 for the read-reply exchange. Distinct
// per-round tags also let round r's reply exchange run after round r+1's
// request exchange (rounds.go) without cross-talk.
const (
	collTagBase  = 1 << 20
	collTagLimit = collTagBase << 1
)

// roundTag returns the exchange tag of round r, asserting it stays inside
// the reserved band.
func roundTag(r int64, sub int) int {
	tag := collTagBase + int(2*r) + sub
	if tag < collTagBase || tag >= collTagLimit {
		panic(fmt.Sprintf("mpiio: round %d exchange tag %d escapes reserved band [%d,%d)",
			r, tag, collTagBase, collTagLimit))
	}
	return tag
}

// fallbackIndependent finishes a collective data-access call whose
// collective buffering is disabled (romio_cb_read/write = false): the rank
// has already performed its independent I/O and err is its local outcome.
// Both WriteAtAll and ReadAtAll funnel through here so the fallback paths
// stay symmetric and agree exactly once — AgreeError is the single
// collective; agreeAbort only does per-rank accounting (no communication).
func (f *File) fallbackIndependent(err error) error {
	return f.agreeAbort(f.comm.AgreeError(err))
}

// Source is the caller's side of a collective write: the request's view-data
// bytes, in view order, handed over a piece at a time. The round loop asks
// for each piece it packs straight into the aggregator's message, so a
// caller that converts on the fly (core's encoder over user memory) never
// stages the request in a buffer of its own. Pieces come in no particular
// order and may be asked for again by a failover replay; the memory behind a
// Source must stay unchanged until the collective returns.
type Source interface {
	// Fill copies the len(dst) bytes at position pos of the request into dst.
	Fill(dst []byte, pos int64)
}

// Sink is the caller's side of a collective read: each piece of the
// request's view-data bytes is handed over as it arrives from its
// aggregator, in no particular order, possibly twice after a failover.
type Sink interface {
	// Drain takes src as the bytes at position pos of the request.
	Drain(pos int64, src []byte)
}

// Bytes is the Source and Sink of a caller that holds the request in one
// buffer: pieces are copied out of it and into it.
type Bytes []byte

// Fill implements Source.
func (b Bytes) Fill(dst []byte, pos int64) { copy(dst, b[pos:]) }

// Drain implements Sink.
func (b Bytes) Drain(pos int64, src []byte) { copy(b[pos:], src) }

// WriteAtAll collectively writes len(buf) view-data bytes at view offset
// off; see WriteAtAllFrom.
func (f *File) WriteAtAll(off int64, buf []byte) error {
	// The handle's own Bytes field carries buf, so the call boxes nothing.
	f.buf = buf
	defer f.dropBuf()
	return f.WriteAtAllFrom(off, int64(len(buf)), &f.buf)
}

// dropBuf releases the caller's buffer WriteAtAll or ReadAtAll parked in the
// handle.
func (f *File) dropBuf() { f.buf = nil }

// WriteAtAllFrom collectively writes the n view-data bytes src supplies at
// view offset off. Every communicator member must call it (possibly with
// n = 0). A peer crash mid-collective surfaces here as a communicator
// revocation (mpi's failure detector is always on); the failover path
// (failover.go) drains, shrinks, and replays the incomplete rounds over
// the survivors.
//
// Overlap: MPI leaves the result of ranks writing the same bytes in one
// collective undefined; here it is fixed. An aggregator lands the pieces it
// received in (file offset, source rank) order, so when several ranks write
// the same byte range the highest rank's data is what the file holds — under
// every hint setting (any round count, any cb_nodes, either partition),
// because identical ranges are clipped identically by every window. Ranges
// that only partly overlap land in that same order window by window:
// deterministic for a given configuration, but which rank wins a shared byte
// can then depend on where the window boundaries fall.
func (f *File) WriteAtAllFrom(off, n int64, src Source) error {
	if f.closed {
		return ErrClosed
	}
	if f.amode&ModeRdOnly != 0 {
		return ErrReadOnly
	}
	if !f.hints.CBWrite {
		return f.fallbackIndependent(f.WriteAtFrom(off, n, src))
	}
	// One span covers the whole collective; its deferred End also closes any
	// still-open round/phase children if an error path unwinds early.
	sc := f.sp.Begin(span.CollWrite)
	defer sc.End()
	sc.SetBytes(n)
	t0 := f.comm.Clock()
	var prog ftProgress
	cerr := mpi.CatchRevoked(func() error {
		segs, vErr := f.viewSegments(off, n)
		return f.collWriteSegs(segs, src, vErr, &prog, t0)
	})
	if rv, ok := mpi.AsRevoked(cerr); ok {
		// A second revocation during the failover (a cascading failure)
		// surfaces as *ErrRevoked again — best-effort, DESIGN.md §8.
		cerr = mpi.CatchRevoked(func() error {
			return f.failoverWrite(off, n, src, &prog, rv, t0)
		})
	}
	return cerr
}

// collWriteSegs runs the two-phase collective write over an explicit
// segment list whose payload src supplies in segment order (bufPos i maps
// through segPrefix). WriteAtAllFrom calls it with the view mapping of its
// request; the failover path calls it again on the shrunken communicator
// with the unfinished clip of the same request. prog records how far the
// call provably got, for the failover's resume-point agreement.
func (f *File) collWriteSegs(segs []pfs.Segment, src Source, vErr error, prog *ftProgress, t0 float64) error {
	n := segsLen(segs)
	sPlan := f.sp.Begin(span.Plan)
	plan, ok, err := f.collectivePlan(segs, vErr, true)
	sPlan.End()
	if err != nil {
		return f.agreeAbort(err)
	}
	prog.planOK, prog.plan = true, plan
	if !ok {
		f.recordAccess(iostat.IOCollWriteCalls, iostat.IOBytesWritten,
			iostat.IOWriteExtents, iostat.IOWriteTimeNs, segs, n, t0)
		return nil // nobody has data
	}
	myAgg := plan.aggIndex(f.comm.Rank())
	// Hoisted out of the round loop: buffer-position prefix sums and the
	// per-aggregator segment index span over each file domain, so every
	// round's window clip is a binary search within its aggregator's span
	// instead of a rescan of the whole segment list.
	prefix := segPrefix(segs)
	spans := plan.spans(segs)
	if err := f.writeRounds(plan, segs, prefix, spans, src, myAgg, prog); err != nil {
		return f.agreeAbort(err)
	}
	f.countRounds(plan)
	f.recordAccess(iostat.IOCollWriteCalls, iostat.IOBytesWritten,
		iostat.IOWriteExtents, iostat.IOWriteTimeNs, segs, n, t0)
	return nil
}

// packWriteRound clips this rank's request to every aggregator's round-r
// window and encodes the write messages into parts (phase 1 of the round):
// segment lists plus the payload src fills in place, in pooled buffers.
// Returns the reused clip scratch.
func (f *File) packWriteRound(plan collectivePlan, segs []pfs.Segment, prefix []int64,
	spans []segSpan, src Source, r int64, parts [][]byte, scratch []reqSeg, sPack span.Active) []reqSeg {
	clear(parts)
	for a := 0; a < plan.naggs; a++ {
		lo, hi := plan.window(a, r)
		if hi <= lo {
			continue
		}
		scratch = intersectRange(segs, prefix, spans[a], lo, hi, scratch[:0])
		if len(scratch) == 0 {
			continue
		}
		msg := encodeWriteMsg(scratch, src)
		parts[plan.aggRank(a)] = msg
		f.st.Add(iostat.IOExchangeBytes, int64(len(msg)))
		sPack.AddBytes(int64(len(msg)))
	}
	return scratch
}

// exchangeScratch, writeScratch and readScratch are the working memory of one
// collective call's round loop: every slice a round needs is made once per
// call (or grown to the largest round seen) and reused by every later round,
// so a round allocates nothing here. A read's requests and coverage come in
// two generations (r & 1), both live at once while round r's replies wait for
// round r+1's request; a one-round plan needs, and makes, only generation 0.
type exchangeScratch struct {
	parts  [][]byte // packed messages by destination rank; empty between exchanges
	counts []int64  // sparseExchange's messages-per-destination vector
}

// byRank returns the i-th size-entry table of slots: the by-rank message
// tables of one scratch are slices of one array.
func byRank(slots [][]byte, i, size int) [][]byte {
	return slots[i*size : (i+1)*size : (i+1)*size]
}

type writeScratch struct {
	exchangeScratch
	msgs [][]byte // received messages by source rank, alive until the round's write returns
	clip []reqSeg // this rank's clip of one window
	wv   writeVec // the aggregator's assembled round
}

func newWriteScratch(plan collectivePlan) *writeScratch {
	size := plan.commSize
	slots := make([][]byte, 2*size)
	s := &writeScratch{}
	s.parts, s.counts = byRank(slots, 0, size), make([]int64, size)
	s.msgs = byRank(slots, 1, size)
	return s
}

type readScratch struct {
	exchangeScratch
	msgs    [][]byte      // received requests by source rank; recycled once merged
	replies [][]byte      // reply messages by destination rank
	back    [][]byte      // received replies by source rank
	reqs    [2][][]reqSeg // generation g's requests by aggregator index
	cov     [2]coverage   // generation g's coverage, on an aggregator
}

func newReadScratch(plan collectivePlan) *readScratch {
	size := plan.commSize
	slots := make([][]byte, 4*size)
	s := &readScratch{}
	s.parts, s.counts = byRank(slots, 0, size), make([]int64, size)
	s.msgs, s.replies, s.back = byRank(slots, 1, size), byRank(slots, 2, size), byRank(slots, 3, size)
	n, gens := plan.naggs, plan.generations()
	reqs := make([][]reqSeg, gens*n)
	for g := 0; g < gens; g++ {
		s.reqs[g] = reqs[g*n : (g+1)*n : (g+1)*n]
	}
	return s
}

// ReadAtAll collectively reads len(buf) view-data bytes at view offset off
// into buf; see ReadAtAllInto.
func (f *File) ReadAtAll(off int64, buf []byte) error {
	f.buf = buf
	defer f.dropBuf()
	return f.ReadAtAllInto(off, int64(len(buf)), &f.buf)
}

// ReadAtAllInto collectively reads n view-data bytes at view offset off,
// handing them to dst as they arrive. Like WriteAtAllFrom, a peer crash
// mid-collective fails over to the survivors; reads always recover fully
// (the file is intact, only the dead rank's own buffer is lost with it).
func (f *File) ReadAtAllInto(off, n int64, dst Sink) error {
	if f.closed {
		return ErrClosed
	}
	if !f.hints.CBRead {
		return f.fallbackIndependent(f.ReadAtInto(off, n, dst))
	}
	sc := f.sp.Begin(span.CollRead)
	defer sc.End()
	sc.SetBytes(n)
	t0 := f.comm.Clock()
	var prog ftProgress
	cerr := mpi.CatchRevoked(func() error {
		segs, vErr := f.viewSegments(off, n)
		return f.collReadSegs(segs, dst, vErr, &prog, t0)
	})
	if _, ok := mpi.AsRevoked(cerr); ok {
		cerr = mpi.CatchRevoked(func() error {
			return f.failoverRead(off, n, dst, &prog, t0)
		})
	}
	return cerr
}

// collReadSegs runs the two-phase collective read over an explicit segment
// list, handing the payload to dst by segment-order position; see
// collWriteSegs.
func (f *File) collReadSegs(segs []pfs.Segment, dst Sink, vErr error, prog *ftProgress, t0 float64) error {
	n := segsLen(segs)
	sPlan := f.sp.Begin(span.Plan)
	plan, ok, err := f.collectivePlan(segs, vErr, false)
	sPlan.End()
	if err != nil {
		return f.agreeAbort(err)
	}
	prog.planOK, prog.plan = true, plan
	if !ok {
		f.recordAccess(iostat.IOCollReadCalls, iostat.IOBytesRead,
			iostat.IOReadExtents, iostat.IOReadTimeNs, segs, n, t0)
		return nil
	}
	myAgg := plan.aggIndex(f.comm.Rank())
	// Hoisted out of the round loop (see collWriteSegs): prefix sums and
	// the per-aggregator segment spans.
	prefix := segPrefix(segs)
	spans := plan.spans(segs)
	if err := f.readRounds(plan, segs, prefix, spans, dst, myAgg, prog); err != nil {
		return f.agreeAbort(err)
	}
	f.countRounds(plan)
	f.recordAccess(iostat.IOCollReadCalls, iostat.IOBytesRead,
		iostat.IOReadExtents, iostat.IOReadTimeNs, segs, n, t0)
	return nil
}

// packReadRound clips this rank's request to every aggregator's round-r
// window and encodes the request messages into parts. reqs[a] keeps the
// clip sent to aggregator a — the order replies are scattered back into the
// caller's buffer — and is owned by the caller (the round loop keeps one per
// generation: round r's requests must survive until round r's scatter, which
// runs after round r+1 has already packed). It returns
// how many aggregators were sent a request, which is how many replies this
// rank will receive.
func (f *File) packReadRound(plan collectivePlan, segs []pfs.Segment, prefix []int64,
	spans []segSpan, r int64, parts [][]byte, reqs [][]reqSeg, sPack span.Active) (sent int) {
	clear(parts)
	for a := 0; a < plan.naggs; a++ {
		reqs[a] = reqs[a][:0]
		lo, hi := plan.window(a, r)
		if hi <= lo {
			continue
		}
		reqs[a] = intersectRange(segs, prefix, spans[a], lo, hi, reqs[a])
		if len(reqs[a]) == 0 {
			continue
		}
		ar := plan.aggRank(a)
		parts[ar] = encodeReadMsg(reqs[a])
		sent++
		f.st.Add(iostat.IOExchangeBytes, int64(len(parts[ar])))
		sPack.AddBytes(int64(len(parts[ar])))
	}
	return sent
}

// buildReplies copies each requesting rank's bytes out of the aggregator's
// coverage, from the positions the merge recorded, into pooled per-rank reply
// buffers.
func (f *File) buildReplies(cov *coverage, replies [][]byte) {
	for k := range cov.merge.cur {
		c := &cov.merge.cur[k]
		// The reply exchange gives each buffer to the requesting rank
		// (deliver nils the slot here) and that rank's recycleRound(back)
		// puts it; the abort path puts the never-sent replies before bailing.
		out := bufpool.GetDirty(int(c.bytes))[:0]
		for _, rq := range cov.reqs[c.first : c.first+c.n] {
			out = append(out, cov.data[rq.pos:rq.pos+rq.len]...)
		}
		replies[c.src] = out
		f.st.Add(iostat.IOExchangeBytes, int64(len(out)))
	}
}

// scatterReplies hands the reply blobs to the caller's sink in the request
// order recorded at pack time: the reply of the rank serving aggregator
// index a answers reqs[a], one Drain per stretch of it that follows on in
// the caller's buffer.
func scatterReplies(dst Sink, plan collectivePlan, reqs [][]reqSeg, back [][]byte) {
	for src, blob := range back {
		if blob == nil {
			continue
		}
		rqs := reqs[plan.aggIndex(src)]
		for i, pos := 0, int64(0); i < len(rqs); {
			j, n := stretch(rqs, i)
			dst.Drain(rqs[i].bufPos, blob[pos:pos+n])
			i, pos = j, pos+n
		}
	}
}

// stretch returns the end j of the run of reqs from i on whose buffer
// positions follow on, and its length in bytes: the payload a message holds
// for reqs[i:j] is one piece of the caller's buffer. The clip of a file view
// that is noncontiguous in the file — Figure 6's X partition — is mostly such
// runs.
func stretch(reqs []reqSeg, i int) (j int, n int64) {
	n = reqs[i].len
	for j = i + 1; j < len(reqs) && reqs[j].bufPos == reqs[i].bufPos+n; j++ {
		n += reqs[j].len
	}
	return j, n
}

// collectivePlan holds the agreed two-phase geometry (partition.go has the
// rules). Boundaries are an explicit table: bounds[k] separates aggregator
// k-1's file domain from aggregator k's (bounds[0] = gmin, bounds[naggs] =
// gmax). aggRanks maps aggregator index to communicator rank; aggOf is its
// precomputed inverse (-1 = rank serves no domain).
type collectivePlan struct {
	gmin, gmax int64
	naggs      int
	bounds     []int64
	aggRanks   []int
	aggOf      []int
	rounds     int64
	cbbuf      int64
	stripe     int64
	commSize   int
}

// agreeAbort records a collective abort and returns err unchanged; every
// rank of a failed collective passes its agreed error through here. It is
// accounting only — the agreement itself already happened (the plan's
// allreduce, a round's verdict, or AgreeError); this performs no
// communication.
func (f *File) agreeAbort(err error) error {
	if err != nil {
		f.st.Add(iostat.IOCollAborts, 1)
	}
	return err
}

// countRounds accounts a completed collective's rounds. A plan of more than
// one round had every aggregator request but one running, in virtual time,
// behind another round's communication (rounds.go); those are the pipelined
// rounds.
func (f *File) countRounds(plan collectivePlan) {
	f.st.Add(iostat.IOTwoPhaseRounds, plan.rounds)
	if plan.rounds > 1 {
		f.st.Add(iostat.IOPipelinedRounds, plan.rounds)
	}
}

// collectivePlan agrees on the aggregate range and domain layout of a
// collective write (write) or read: the two differ only in how many
// aggregators the hints give them. Returns ok=false when no rank has any
// data (all ranks agree on that too).
// localErr folds each rank's view-flattening error status into the same
// allreduce that agrees the range: a failed rank contributes an empty
// range plus an error flag, so every rank learns of the failure without an
// extra collective and nobody starts exchanging rounds with a rank that
// already bailed.
func (f *File) collectivePlan(segs []pfs.Segment, localErr error, write bool) (collectivePlan, bool, error) {
	// Empty requests contribute (MaxInt64, 0); offsets are non-negative, so
	// negating hi for the min-reduction stays in range.
	lo, hi := int64(math.MaxInt64), int64(0)
	if localErr == nil && len(segs) > 0 {
		lo = segs[0].Off
		last := segs[len(segs)-1]
		hi = last.Off + last.Len
	}
	errFlag := int64(0)
	if localErr != nil {
		errFlag = -1
	}
	ext := f.comm.AllreduceI64([]int64{lo, -hi, errFlag}, mpi.OpMin)
	gmin, gmax := ext[0], -ext[1]
	if ext[2] < 0 {
		if localErr != nil {
			return collectivePlan{}, false, localErr
		}
		return collectivePlan{}, false, mpi.ErrPeerFailed
	}
	if gmax <= gmin {
		return collectivePlan{}, false, nil
	}
	size := f.comm.Size()
	naggs := f.hints.CBNodes
	if write {
		naggs = f.hints.CBWriteNodes
	}
	// A failover replans on the survivors, which can be fewer.
	naggs = min(naggs, size)
	stripe := f.fs.Config().StripeSize
	bounds := evenBounds(gmin, gmax, naggs, stripe)
	aggRanks := evenAggRanks(naggs, size)
	return collectivePlan{
		gmin: gmin, gmax: gmax, naggs: naggs,
		bounds: bounds, aggRanks: aggRanks, aggOf: invertAggRanks(aggRanks, size),
		rounds: roundsFor(bounds, f.hints.CBBufferSize),
		cbbuf:  f.hints.CBBufferSize, stripe: stripe, commSize: size,
	}, true, nil
}

// generations is how many read rounds of the plan can be live at once: the
// round whose replies are still to be sent and the one just read.
func (p collectivePlan) generations() int { return int(min(p.rounds, 2)) }

// aggRank maps aggregator index a to the communicator rank serving it.
func (p collectivePlan) aggRank(a int) int { return p.aggRanks[a] }

// aggIndex returns the aggregator index served by rank, or -1.
func (p collectivePlan) aggIndex(rank int) int { return p.aggOf[rank] }

// boundary returns the file offset separating aggregator k-1's domain from
// aggregator k's. Interior boundaries sit on absolute stripe positions
// (ROMIO's file-domain alignment), so collective writes touch at most two
// partial stripe blocks in total — the first and last of the aggregate
// range — avoiding the file system's partial-block read-modify-write
// penalty. The table is monotone and shared by both neighbors, so domains
// never overlap and never leave gaps: bounds[0] = gmin, bounds[naggs] =
// gmax exactly.
func (p collectivePlan) boundary(k int) int64 { return p.bounds[k] }

// window returns aggregator a's byte range for round r.
func (p collectivePlan) window(a int, r int64) (lo, hi int64) {
	dLo := p.boundary(a)
	dHi := p.boundary(a + 1)
	lo = dLo + r*p.cbbuf
	hi = min(lo+p.cbbuf, dHi)
	return lo, hi
}

// segPrefix returns buffer-position prefix sums for a segment list:
// prefix[i] is the number of payload bytes before segs[i]. Computed once per
// collective call so window clips need no rescans.
func segPrefix(segs []pfs.Segment) []int64 {
	prefix := make([]int64, len(segs)+1)
	for i, s := range segs {
		prefix[i+1] = prefix[i] + s.Len
	}
	return prefix
}

// segSpan is a half-open index range of a rank's segment list.
type segSpan struct{ i0, i1 int }

// firstEndingAfter returns the first index in [i0, i1) of a segment ending
// past off, or i1: where a clip to a range starting at off begins. segs is
// ascending and disjoint, so segment ends ascend too.
func firstEndingAfter(segs []pfs.Segment, i0, i1 int, off int64) int {
	for i0 < i1 {
		mid := int(uint(i0+i1) >> 1)
		if segs[mid].Off+segs[mid].Len > off {
			i1 = mid
		} else {
			i0 = mid + 1
		}
	}
	return i0
}

// spans returns, per aggregator, the indices of segs overlapping that
// aggregator's file domain — the per-aggregator slicing done once, outside
// the round loop.
func (p collectivePlan) spans(segs []pfs.Segment) []segSpan {
	out := make([]segSpan, p.naggs)
	for a := 0; a < p.naggs; a++ {
		dLo, dHi := p.boundary(a), p.boundary(a+1)
		i0 := firstEndingAfter(segs, 0, len(segs), dLo)
		// The first segment starting at or past dHi is the first one ending
		// past it, unless a segment straddles dHi: that one still overlaps.
		i1 := firstEndingAfter(segs, i0, len(segs), dHi)
		if i1 < len(segs) && segs[i1].Off < dHi {
			i1++
		}
		out[a] = segSpan{i0: i0, i1: i1}
	}
	return out
}

// intersectRange clips segs[span.i0:span.i1) to the window [lo, hi),
// appending to out (reused across rounds). Buffer positions come from the
// precomputed prefix sums.
func intersectRange(segs []pfs.Segment, prefix []int64, span segSpan, lo, hi int64, out []reqSeg) []reqSeg {
	for i := firstEndingAfter(segs, span.i0, span.i1, lo); i < span.i1 && segs[i].Off < hi; i++ {
		s := segs[i]
		cLo := max(s.Off, lo)
		cHi := min(s.Off+s.Len, hi)
		if cHi > cLo {
			out = append(out, reqSeg{off: cLo, len: cHi - cLo, bufPos: prefix[i] + (cLo - s.Off)})
		}
	}
	return out
}

// recycleRound returns the messages a rank received in one exchange to the
// pool. Buffer custody (DESIGN.md §9): a pooled message belongs to the rank
// holding it in a slot — the encoder until sparseExchange hands it over and
// nils that slot, the receiver from then on — so every buffer sits in
// exactly one slot of one rank, and this call on the receiving rank is its
// single Put. PutAll nils the slots, so a by-rank table the round loop
// keeps across rounds cannot alias pooled memory after release.
func recycleRound(msgs [][]byte) {
	bufpool.PutAll(msgs)
}

// failedRound is what a rank whose pending outcome failed adds to every slot
// of sparseExchange's count vector. A slot sums at most one message per rank,
// so its low 32 bits stay the message count and anything above them is the
// number of ranks that failed: the verdict rides in the vector the exchange
// reduces anyway, without lengthening it.
const failedRound = 1 << 32

// sparseExchange delivers parts[dst] to each dst with a non-nil entry and
// fills out, indexed by source, with the blobs this rank received (a source
// that sent nothing leaves its slot nil; out must come in empty). Messages
// move by ownership, not by copy: the receiver gets the sender's buffer itself
// and each delivered slot of parts is nilled, so on return parts is empty and
// the sender holds none of what it packed (a slot whose send did not happen —
// the exchange unwound first — stays with the sender). The expected receive
// count is agreed via an Allreduce over counts (scratch, one entry per rank),
// as ROMIO exchanges counts before payloads.
//
// The same Allreduce is the error agreement on an earlier round: pending is
// this rank's outcome of it (nil for none, or success). On a failed verdict
// every rank learns it from the reduction, before any send, so nothing is
// delivered: parts go back to the pool, out stays empty, and the return is
// pending on a rank that failed and mpi.ErrPeerFailed on the others — the
// AgreeError convention. sp records the Allreduce as an agree span (a wait
// for the slowest rank to arrive) and the point-to-point half as an exchange
// span. kill, when non-nil, is the mid-exchange rank-kill hook: it runs after
// this rank's sends are out but before its receives complete — the window
// where a crash strands both the count agreement's promises and the peers'
// pending receives.
func sparseExchange(c *mpi.Comm, sp *span.Recorder, parts, out [][]byte, counts []int64,
	pending error, tag int, kill func()) error {
	for dst, p := range parts {
		counts[dst] = 0
		if p != nil {
			counts[dst] = 1
		}
		if pending != nil {
			counts[dst] += failedRound
		}
	}
	sAgree := sp.Begin(span.Agree)
	totals := c.AllreduceI64(counts, mpi.OpSum)
	sAgree.End()
	expect := totals[c.Rank()]
	if expect >= failedRound {
		bufpool.PutAll(parts)
		if pending != nil {
			return pending
		}
		return mpi.ErrPeerFailed
	}
	sXchg := sp.Begin(span.Exchange)
	deliver(c, parts, out, tag, int(expect), kill)
	sXchg.End()
	return nil
}

// deliver is the point-to-point half of sparseExchange for a caller that
// already knows how many messages it will receive (expect, the self-addressed
// one included): the reply leg of a read round, where a rank hears from
// exactly the aggregators it sent a request to.
func deliver(c *mpi.Comm, parts, out [][]byte, tag, expect int, kill func()) {
	for dst := range parts {
		if parts[dst] == nil {
			continue
		}
		if dst == c.Rank() {
			out[dst] = parts[dst]
			expect--
		} else {
			c.Send(dst, tag, parts[dst])
		}
		parts[dst] = nil
	}
	if kill != nil {
		kill()
	}
	for i := 0; i < expect; i++ {
		blob, src := c.Recv(mpi.AnySource, tag)
		out[src] = blob
	}
}

// Message formats. Write: n, n*(off,len), payload. Read request: n,
// n*(off,len). Read reply: payload only. The aggregator's side of both
// headers is the merge in merge.go.

func encodeWriteMsg(reqs []reqSeg, src Source) []byte {
	var total int64
	for _, r := range reqs {
		total += r.len
	}
	// The sender gives the message up at sparseExchange (slot nilled; put
	// back there on a failed verdict); the receiving aggregator's
	// recycleRound puts it once its write is down.
	msg := bufpool.GetDirty(8 + 16*len(reqs) + int(total))
	binary.BigEndian.PutUint64(msg, uint64(len(reqs)))
	p := 8
	for _, r := range reqs {
		binary.BigEndian.PutUint64(msg[p:], uint64(r.off))
		binary.BigEndian.PutUint64(msg[p+8:], uint64(r.len))
		p += 16
	}
	for i := 0; i < len(reqs); {
		j, n := stretch(reqs, i)
		src.Fill(msg[p:p+int(n)], reqs[i].bufPos)
		i, p = j, p+int(n)
	}
	return msg
}

func encodeReadMsg(reqs []reqSeg) []byte {
	// The sender gives the request up at sparseExchange (slot nilled; put
	// back there on a failed verdict); the receiving aggregator's
	// recycleRound puts it once the coverage is assembled.
	msg := bufpool.GetDirty(8 + 16*len(reqs))
	binary.BigEndian.PutUint64(msg, uint64(len(reqs)))
	p := 8
	for _, r := range reqs {
		binary.BigEndian.PutUint64(msg[p:], uint64(r.off))
		binary.BigEndian.PutUint64(msg[p+8:], uint64(r.len))
		p += 16
	}
	return msg
}
