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
//
// The pipelined and the serial loop of a direction differ only in that
// ordering. Packing, the exchange, the aggregator's merge of what it received
// (merge.go) and the reply/scatter step are the same routines over the same
// scratch (writeScratch, readScratch); the pipeline adds the generation index.

import (
	"pnetcdf/internal/bufpool"
	"pnetcdf/internal/fault"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/pfs"
	"pnetcdf/internal/span"
)

// pendingWrite is the backend half of an in-flight write round. The
// assembled segments and iovec it writes are the scratch's writeVec: round
// r+1 assembles only after round r's Wait, so one suffices.
type pendingWrite struct {
	active bool
	g      int   // generation index (r & 1)
	r      int64 // round index
	op     *pfs.AsyncOp
	issued float64 // rank clock at issue time
	err    error   // the round's messages did not merge: nothing was issued
}

// writeRoundsPipelined runs the write rounds as a depth-2 pipeline. The
// returned error is already agreed (identical on every rank).
func (f *File) writeRoundsPipelined(plan collectivePlan, segs []pfs.Segment, prefix []int64,
	spans []segSpan, buf []byte, myAgg int, prog *ftProgress) error {
	// Received messages go by generation (msgs[r & 1]): round r's stay
	// live while its write is in flight, i.e. across round r+1's exchange.
	// Everything else in the scratch is shared by both generations.
	s := newWriteScratch(plan, 2)
	parts, msgs, wv := s.parts, s.msgs, &s.wv
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
		roundErr := pend.err
		if pend.op != nil {
			roundErr = f.waitPF(pend.op, pend.issued, func(t float64) (float64, error) {
				return f.pf.WriteVec(t, wv.segs, wv.iov)
			})
			// Recorded as a closed leaf under the open coll_write span with
			// explicit times: [issue, completion] genuinely overlaps the
			// next round's pack/exchange spans. Round tagged explicitly —
			// the owning round span closed before the write completed.
			f.sp.Record(span.AggWrite, int(pend.r), pend.issued, f.comm.Clock(), wv.bytes)
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
		s.clip = f.packWriteRound(plan, segs, prefix, spans, buf, r, parts, s.clip, sPack)
		sPack.End()
		sXchg := f.sp.Begin(span.Exchange)
		sparseExchange(f.comm, parts, msgs[g], s.counts, roundTag(r, 0), kill)
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
		// Backend of round r: merge (the iovec references the message
		// payloads in place — the generation stays live until Wait) and
		// issue the aggregator write asynchronously. Round r-1's write is
		// down, so its segments and iovec can be overwritten.
		pend = pendingWrite{active: true, g: g, r: r, issued: f.comm.Clock()}
		if myAgg >= 0 {
			lo, hi := plan.window(myAgg, r)
			pend.err = wv.assemble(msgs[g], lo, hi)
			if pend.err == nil && len(wv.iov) > 0 {
				pend.op = f.pf.WriteVecAsync(f.comm.Clock(), wv.segs, wv.iov)
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
// coverage read. What it reads into, and everything needed to build and
// scatter its replies, is the scratch's generation g.
type pendingRead struct {
	active bool
	g      int
	r      int64
	op     *pfs.AsyncOp
	issued float64
	sent   int   // aggregators this rank sent a request to: replies to expect
	err    error // the round's requests did not merge: nothing was issued
}

// readRoundsPipelined runs the read rounds with one round of aggregator
// read-ahead: round r+1's coverage read is issued before round r's reply
// exchange and scatter, so it is in flight while they run. The returned
// error is already agreed (identical on every rank).
func (f *File) readRoundsPipelined(plan collectivePlan, segs []pfs.Segment, prefix []int64,
	spans []segSpan, buf []byte, myAgg int, prog *ftProgress) error {
	// The request bookkeeping and the coverage go by generation (r & 1):
	// round r's must survive until its scatter, after round r+1 has packed
	// and assembled. The request messages themselves are merged and recycled
	// inside the frontend — a coverage references none of their bytes.
	s := newReadScratch(plan, 2)
	parts, msgs, replies, back := s.parts, s.msgs, s.replies, s.back
	var pend pendingRead
	// Revocation drain, mirroring writeRoundsPipelined: join the in-flight
	// read-ahead and release both coverages plus every exchange buffer this
	// rank still holds before the failover replays (see that loop's
	// comment).
	defer func() {
		if rec := recover(); rec != nil {
			if pend.active && pend.op != nil {
				pend.op.Wait()
			}
			for g := range s.cov {
				s.cov[g].release()
			}
			bufpool.PutAll(parts)
			bufpool.PutAll(replies)
			recycleRound(msgs)
			recycleRound(back)
			panic(rec)
		}
	}()

	// frontend packs round r, exchanges its request lists, and issues the
	// aggregator's coverage read asynchronously. The request exchange
	// buffers are released immediately, but the s.reqs and s.cov generations
	// survive until round r's scatter.
	kill := f.killHook(fault.KillMidExchange)
	frontend := func(r int64) {
		f.killPoint(fault.KillBeforePack)
		g := int(r & 1)
		sRound := f.sp.Begin(span.Round)
		sRound.SetRound(int(r))
		sPack := f.sp.Begin(span.Pack)
		sent := f.packReadRound(plan, segs, prefix, spans, r, parts, s.reqs[g], sPack)
		sPack.End()
		sXchg := f.sp.Begin(span.Exchange)
		sparseExchange(f.comm, parts, msgs, s.counts, roundTag(r, 0), kill)
		sXchg.End()
		sRound.End()
		pend = pendingRead{active: true, g: g, r: r, issued: f.comm.Clock(), sent: sent}
		if myAgg >= 0 {
			cov := &s.cov[g]
			lo, hi := plan.window(myAgg, r)
			pend.err = cov.assemble(msgs, lo, hi)
			if pend.err == nil && !cov.empty() {
				pend.op = f.pf.ReadVAsync(f.comm.Clock(), cov.segs, cov.data)
				f.killPoint(fault.KillAfterIssue)
			}
		}
		recycleRound(msgs)
	}

	frontend(0)
	for r := int64(0); r < plan.rounds; r++ {
		cur := pend
		pend = pendingRead{}
		cov := &s.cov[cur.g]
		roundErr := cur.err
		if cur.op != nil {
			roundErr = f.waitPF(cur.op, cur.issued, func(t float64) (float64, error) {
				return f.pf.ReadV(t, cov.segs, cov.data)
			})
			f.sp.Record(span.AggRead, int(r), cur.issued, f.comm.Clock(), int64(len(cov.data)))
		}
		// Agreement stays BEFORE the reply exchange (a failed aggregator
		// has no data to send back), and before the next read-ahead is
		// issued — on failure nothing is in flight and every rank returns
		// the same error.
		if err := f.comm.AgreeError(roundErr); err != nil {
			cov.release()
			return err
		}
		// Read-ahead: round r+1's coverage read overlaps round r's reply
		// exchange and scatter below.
		if r+1 < plan.rounds {
			frontend(r + 1)
		}
		if !cov.empty() {
			f.buildReplies(cov, replies)
		}
		cov.release()
		// Reply/scatter spans sit under the coll span (their round span
		// closed during the frontend); tag them with their round. Like the
		// serial loop's, the reply leg agrees nothing: cur.sent replies come.
		sReply := f.sp.Begin(span.ReplyXchg)
		sReply.SetRound(int(r))
		deliver(f.comm, replies, back, roundTag(r, 1), cur.sent, nil)
		sReply.End()
		sScatter := f.sp.Begin(span.Scatter)
		sScatter.SetRound(int(r))
		scatterReplies(buf, plan, s.reqs[cur.g], back)
		sScatter.End()
		recycleRound(back)
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
