package mpiio

// Depth-2 pipelined two-phase collective I/O (DESIGN.md §13). The serial
// round loop lets the interconnect and the file system take turns idling:
// while an aggregator's WriteVec is in flight nobody packs, and while ranks
// pack nobody writes. The pipelined loop overlaps them, one round deep:
//
//	write:  pack(r) → exchange(r) → [wait(r-1), agree(r-1)] → issue(r)
//	read:   wait(r) → agree(r) → pack(r+1) → exchange(r+1) → issue(r+1)
//	        → replies(r) → scatter(r)
//
// so round r's aggregator I/O (issued asynchronously via
// pfs.WriteVecAsync/ReadVAsync) is in flight during round r+1's
// pack/exchange (writes) or round r's reply exchange and scatter (reads).
// At most one I/O is in flight per rank — the fault injector's per-rank
// occurrence counters stay in program order, so seeded fault runs remain
// deterministic, and the crash-truncate path never races a second write.
//
// Error agreement for a write round is deferred one round: it piggybacks on
// the round r+1 boundary, after round r+1's exchange (which needs no
// agreement to be safe — sparseExchange agrees its counts internally), and
// a drain step agrees the final round. Every rank runs the identical
// collective sequence, so the PR 2 invariants hold: no hangs, the same
// error on every rank, and no duplicate writes on retry (a transient async
// failure is re-issued synchronously at Wait; writes are idempotent full
// rewrites). Reads keep their agreement in-round, before the reply
// exchange, exactly like the serial path — a failed aggregator has nothing
// to send back.
//
// Buffer lifetime follows the in-flight-generation pattern: the exchange
// hands every packed message to its receiver (sparseExchange), so a rank
// holds only what it received, and on the write side two generations of
// received messages are alive at once, each recycled (recycleRound →
// bufpool.PutAll) only after the owning I/O's Wait, since the aggregator's
// iovec references the message payloads in place. Output is byte-identical
// to the serial path; only virtual and wall-clock timing differ.

import (
	"pnetcdf/internal/bufpool"
	"pnetcdf/internal/fault"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/pfs"
	"pnetcdf/internal/span"
)

// pendingWrite is the backend half of an in-flight write round.
type pendingWrite struct {
	active bool
	g      int   // generation index (r & 1)
	r      int64 // round index
	op     *pfs.AsyncOp
	issued float64 // rank clock at issue time
	bytes  int64
	retry  func(t float64) (float64, error)
}

// writeRoundsPipelined runs the write rounds as a depth-2 pipeline. The
// returned error is already agreed (identical on every rank).
func (f *File) writeRoundsPipelined(plan collectivePlan, segs []pfs.Segment, prefix []int64,
	spans []segSpan, buf []byte, myAgg int, prog *ftProgress) error {
	parts := make([][]byte, f.comm.Size())
	// Received messages, by generation (r & 1): round r's stay live while
	// its write is in flight, i.e. across round r+1's exchange.
	var msgs [2][][]byte
	var scratch []reqSeg
	var entries []writeEntry
	var pend pendingWrite
	// A communicator revocation unwinds this loop as a panic from any of
	// its collectives. Before the failover above replays rounds, the
	// in-flight async write must be joined — a background WriteVec racing
	// the replay could interleave stale bytes — and every buffer this rank
	// still holds released: what it packed but never handed over, and both
	// received generations (PutAll nils slots, so a partially recycled
	// generation is safe to recycle again).
	defer func() {
		if rec := recover(); rec != nil {
			if pend.active && pend.op != nil {
				pend.op.Wait()
			}
			bufpool.PutAll(parts)
			for g := range msgs {
				recycleRound(msgs[g])
			}
			panic(rec)
		}
	}()

	// finish completes the in-flight round: join its write (advancing the
	// rank clock and crediting io_overlap_ns), record the agg_write span
	// with its true overlapped interval, release its generation, and run
	// its deferred error agreement. Returns the agreed error.
	finish := func() error {
		if !pend.active {
			return nil
		}
		pend.active = false
		var roundErr error
		if pend.op != nil {
			roundErr = f.waitPF(pend.op, pend.issued, pend.retry)
			// Recorded as a closed leaf under the open coll_write span with
			// explicit times: [issue, completion] genuinely overlaps the
			// next round's pack/exchange spans. Round tagged explicitly —
			// the owning round span closed before the write completed.
			f.sp.Record(span.AggWrite, int(pend.r), pend.issued, f.comm.Clock(), pend.bytes)
		}
		pend.op = nil
		recycleRound(msgs[pend.g])
		if err := f.comm.AgreeError(roundErr); err != nil {
			return err
		}
		prog.roundAgreed(pend.r)
		return nil
	}

	kill := f.killHook(fault.KillMidExchange)
	for r := int64(0); r < plan.rounds; r++ {
		f.killPoint(fault.KillBeforePack)
		g := int(r & 1)
		// Frontend of round r: pack and exchange while round r-1's write is
		// still in flight. The round span covers only this frontend; the
		// overlapped agg_write is recorded separately at Wait.
		sRound := f.sp.Begin(span.Round)
		sRound.SetRound(int(r))
		sPack := f.sp.Begin(span.Pack)
		scratch = f.packWriteRound(plan, segs, prefix, spans, buf, r, parts, scratch, sPack)
		sPack.End()
		sXchg := f.sp.Begin(span.Exchange)
		msgs[g] = sparseExchange(f.comm, parts, roundTag(r, 0), kill)
		sXchg.End()
		sRound.End()
		// Deferred boundary: only now wait on round r-1's write and agree
		// its outcome. On failure the freshly exchanged round r generation
		// is dead too — every rank bails here together (drain: nothing is
		// left in flight).
		if err := finish(); err != nil {
			recycleRound(msgs[g])
			return err
		}
		// Backend of round r: decode (the iovec references the message
		// payloads in place — the generation stays live until Wait) and
		// issue the aggregator write asynchronously.
		pend = pendingWrite{active: true, g: g, r: r, issued: f.comm.Clock()}
		if myAgg >= 0 {
			entries = decodeWriteMsgs(msgs[g], entries[:0])
			if len(entries) > 0 {
				wsegs, iov := assembleWriteVec(entries)
				for _, s := range wsegs {
					pend.bytes += s.Len
				}
				pend.op = f.pf.WriteVecAsync(f.comm.Clock(), wsegs, iov)
				pend.retry = func(t float64) (float64, error) {
					return f.pf.WriteVec(t, wsegs, iov)
				}
				f.killPoint(fault.KillAfterIssue)
			}
		}
	}
	// Drain: the last round has no successor exchange to hide behind.
	err := finish()
	f.st.Add(iostat.IOPipelinedRounds, plan.rounds)
	return err
}

// pendingRead is the backend half of an in-flight read round: the issued
// coverage read plus everything needed to build and scatter its replies.
type pendingRead struct {
	active    bool
	g         int
	r         int64
	op        *pfs.AsyncOp
	issued    float64
	cov       *coverage
	reqsBySrc map[int][]reqSeg
	retry     func(t float64) (float64, error)
}

// readRoundsPipelined runs the read rounds with one round of aggregator
// read-ahead: round r+1's coverage read is issued before round r's reply
// exchange and scatter, so it is in flight while they run. The returned
// error is already agreed (identical on every rank).
func (f *File) readRoundsPipelined(plan collectivePlan, segs []pfs.Segment, prefix []int64,
	spans []segSpan, buf []byte, myAgg int, prog *ftProgress) error {
	// Only the request bookkeeping needs generations (r & 1): round r's
	// requests must survive until its scatter, after round r+1 has packed.
	// The request messages themselves are decoded and recycled inside the
	// frontend.
	var myReqs, reqBufs [2][][]reqSeg
	for g := range myReqs {
		myReqs[g] = make([][]reqSeg, f.comm.Size()) // agg rank -> requests, in order
		reqBufs[g] = make([][]reqSeg, plan.naggs)
	}
	parts := make([][]byte, f.comm.Size())
	replies := make([][]byte, f.comm.Size())
	var msgs [][]byte
	var pend pendingRead
	// Revocation drain, mirroring writeRoundsPipelined: join the in-flight
	// read-ahead and release its coverage plus every exchange buffer this
	// rank still holds before the failover replays (see that loop's
	// comment).
	defer func() {
		if rec := recover(); rec != nil {
			if pend.active && pend.op != nil {
				pend.op.Wait()
			}
			if pend.cov != nil {
				bufpool.Put(pend.cov.data)
			}
			bufpool.PutAll(parts)
			bufpool.PutAll(replies)
			recycleRound(msgs)
			panic(rec)
		}
	}()

	// frontend packs round r, exchanges its request lists, and issues the
	// aggregator's coverage read asynchronously. The request exchange
	// buffers are released immediately — decodeReadMsgs copies the request
	// segments out — but myReqs/reqBufs generations survive until round r's
	// scatter.
	kill := f.killHook(fault.KillMidExchange)
	frontend := func(r int64) {
		f.killPoint(fault.KillBeforePack)
		g := int(r & 1)
		sRound := f.sp.Begin(span.Round)
		sRound.SetRound(int(r))
		sPack := f.sp.Begin(span.Pack)
		f.packReadRound(plan, segs, prefix, spans, r, parts, myReqs[g], reqBufs[g], sPack)
		sPack.End()
		sXchg := f.sp.Begin(span.Exchange)
		msgs = sparseExchange(f.comm, parts, roundTag(r, 0), kill)
		sXchg.End()
		sRound.End()
		pend = pendingRead{active: true, g: g, r: r, issued: f.comm.Clock()}
		if myAgg >= 0 {
			pend.reqsBySrc = decodeReadMsgs(msgs)
			if len(pend.reqsBySrc) > 0 {
				cov := newCoverage(pend.reqsBySrc)
				pend.cov = cov
				pend.op = f.pf.ReadVAsync(f.comm.Clock(), cov.segs, cov.data)
				pend.retry = func(t float64) (float64, error) {
					return f.pf.ReadV(t, cov.segs, cov.data)
				}
				f.killPoint(fault.KillAfterIssue)
			}
		}
		recycleRound(msgs)
	}

	frontend(0)
	for r := int64(0); r < plan.rounds; r++ {
		cur := pend
		pend = pendingRead{}
		var roundErr error
		if cur.op != nil {
			roundErr = f.waitPF(cur.op, cur.issued, cur.retry)
			f.sp.Record(span.AggRead, int(r), cur.issued, f.comm.Clock(), int64(len(cur.cov.data)))
		}
		// Agreement stays BEFORE the reply exchange (a failed aggregator
		// has no data to send back), and before the next read-ahead is
		// issued — on failure nothing is in flight and every rank returns
		// the same error.
		if err := f.comm.AgreeError(roundErr); err != nil {
			if cur.cov != nil {
				bufpool.Put(cur.cov.data)
			}
			return err
		}
		// Read-ahead: round r+1's coverage read overlaps round r's reply
		// exchange and scatter below.
		if r+1 < plan.rounds {
			frontend(r + 1)
		}
		clear(replies)
		if cur.cov != nil {
			f.buildReplies(cur.cov, cur.reqsBySrc, replies)
		}
		// Reply/scatter spans sit under the coll span (their round span
		// closed during the frontend); tag them with their round.
		sReply := f.sp.Begin(span.ReplyXchg)
		sReply.SetRound(int(r))
		back := sparseExchange(f.comm, replies, roundTag(r, 1), nil)
		sReply.End()
		sScatter := f.sp.Begin(span.Scatter)
		sScatter.SetRound(int(r))
		scatterReplies(buf, myReqs[cur.g], back)
		sScatter.End()
		recycleRound(back)
		if cur.cov != nil {
			bufpool.Put(cur.cov.data)
		}
		prog.roundAgreed(r)
	}
	f.st.Add(iostat.IOPipelinedRounds, plan.rounds)
	// The read-ahead issued by frontend(r+1) is loop-carried: it is always
	// Waited at the top of iteration r+1, and the `r+1 < plan.rounds` guard
	// means no op is in flight when the loop exits — an invariant over the
	// loop index the path-sensitive analysis cannot prove.
	//nclint:allow=asyncwait -- final round issues no read-ahead (frontend is guarded by r+1 < plan.rounds), so nothing is in flight here
	return nil
}
