package mpiio

// The two-phase round loops (DESIGN.md §4): one per direction. A round has
// a frontend every rank runs (pack, exchange) and a backend only aggregators
// run (merge what was received, one vectored pfs request). The overlap is
// virtual, the sequence real: a request moves its bytes before it returns,
// and the rank clock takes the request's virtual end later.
//
// cb_buffer_size is a round's staging buffer: it sets how much of its file
// domain an aggregator takes per round, and so the round count, and how
// many read rounds' buffers the client cache holds; nothing else. A write
// round's request is a write behind (behind.go): the clock takes the time
// its bytes left the client link, and its end only when the rank's writes
// in flight would overflow the client cache
// (pfs.Config.ClientCache), or at Sync, Close or a header publish. The
// staging buffer is free once the request returns — the cache holds the
// bytes — so the servers work on round r, on the rounds before it and on
// earlier collectives' rounds while the ranks pack and exchange what
// follows. A read round's request is a read ahead: the clock takes the time
// its request left the client link (pfs.File.ReadAhead), and its end
// depth − 1 rounds later, where depth is readDepth's (one round per
// I/O server, as many round buffers as the client cache holds, never fewer
// than two, never more than the R rounds there are):
//
//	write round r:  pack(r) → exchange(r) ⊇ verdict(r−1) → [settle oldest] → issue(r)
//	read round r:   [settle(k)] → pack(r) → exchange(r) ⊇ verdict(k) → issue(r)
//	                → [replies(k) → scatter(k)]          with k = r − depth + 1
//
// A read's bracketed steps exist once depth − 1 rounds are in flight
// behind round k; the last depth − 1 rounds settle after the loop, one
// closing agreement carries their verdicts, and they are answered in order.
// At depth 2 this is round r's read hidden behind round r−1's replies; a
// one-round read (depth 1) is exactly pack → exchange → ReadAhead → settle
// → agree → replies → scatter. A rank's requests never share its link:
// each is issued after the last one's bytes left. A transient failure is
// resumed inside the request (pfs.File.ReadAhead/WriteBehind); the
// request's end is its last attempt's.
//
// One agreement per round. An exchange's count allreduce (sparseExchange) is
// also the error agreement on an earlier round whose outcome every rank
// knows: on a write, round r's exchange carries round r−1's, whose request
// returned before the exchange; on a read, round r's exchange carries round
// k's, after k's settle — a failure is never agreed before the read's
// virtual end — and still ahead of answer(k), so a failed aggregator is
// never expected to reply. The rounds no later exchange can carry — the
// last write round, the last depth − 1 read rounds — go to one closing
// AgreeError. A collective of R rounds thus enters 1 + R + 1 allreduces
// (plan, exchanges, closing agreement): an allreduce is a round trip through
// every rank, so a verdict of its own per round would double a multi-round
// collective's synchronizations for no information, and a one-round plan
// keeps the classic sequence. On a failed verdict every rank
// learns it from the same allreduce before any send: nothing is delivered,
// every buffer is recycled, and all ranks return together. Every rank runs
// the identical collective sequence, so no rank hangs, every rank returns
// the same error, and a retry duplicates no write (writes are idempotent
// full rewrites).
//
// Buffer lifetime: the exchange hands every packed message to its receiver
// (sparseExchange), so a rank holds only what it received. The write loop
// keeps one table of received messages: the aggregator's iovec references
// their payloads in place, and they go back to the pool (recycleRound →
// bufpool.PutAll) as soon as the round's write returns, before the next
// exchange refills the table. The read loop merges and recycles the request
// messages within their round; a round in flight then holds its coverage —
// the pooled buffer its read filled, at most cb_buffer_size, so depth of
// them fit the client cache, and where each request sits in it, in rows of
// tables made once per collective (readScratch.hold) — until it is
// answered. A requesting rank keeps only the number of replies to expect,
// and recomputes its clip of a round to scatter them. The file's bytes do
// not depend on the round count or the depth.

import (
	"pnetcdf/internal/bufpool"
	"pnetcdf/internal/fault"
	"pnetcdf/internal/span"
)

// writeRounds runs the write rounds of one collective. The returned error is
// already agreed (identical on every rank).
func (f *File) writeRounds(plan collectivePlan, x extents, prefix []int64,
	spans []segSpan, src Source, myAgg int) error {
	s := &f.coll.w
	s.reset(plan.commSize)
	parts, msgs, wv := s.parts, s.msgs, &s.wv
	// A communicator revocation unwinds this loop as a panic from any of
	// its collectives. Before it leaves the collective, every buffer this
	// rank still holds is released: what it packed but never handed over and
	// what it received (PutAll nils slots, so a partially recycled table is
	// safe to recycle again). No request is left to join: each one's bytes
	// have landed when it returns. However it leaves, the iovec the scratch
	// keeps for the next collective lets go of the messages it pointed into.
	defer func() {
		clear(wv.iov)
		if rec := recover(); rec != nil {
			bufpool.PutAll(parts)
			recycleRound(msgs)
			panic(rec)
		}
	}()

	// frontend packs round r and exchanges it into msgs; the exchange's count
	// allreduce carries pending, this rank's outcome of round r−1, and
	// frontend returns the agreed verdict on it. The round span covers only
	// this; the aggregator's write is recorded on its own, under the
	// collective, with the interval it took in virtual time.
	kill := f.killHook(fault.KillMidExchange)
	frontend := func(r int64, pending error) error {
		f.killPoint(fault.KillBeforePack)
		sRound := f.sp.Begin(span.Round)
		sRound.SetRound(int(r))
		sPack := f.sp.Begin(span.Pack)
		s.clip = f.packWriteRound(plan, x, prefix, spans, src, r, parts, s.clip, sPack)
		sPack.End()
		err := sparseExchange(f.comm, f.sp, parts, msgs, s.counts, pending, roundTag(r, 0), kill)
		sRound.End()
		return err
	}
	if myAgg >= 0 {
		f.behind.reserve(int(plan.rounds))
	}
	_ = frontend(0, nil) // carries no round: the verdict is nil
	for r := int64(0); r < plan.rounds; r++ {
		// Backend: merge what this aggregator received into one vectored
		// write whose iovec points straight into the message payloads — no
		// coalescing copy. A message the merge rejects fails the round like
		// a failed write does.
		var roundErr error
		if myAgg >= 0 {
			lo, hi := plan.window(myAgg, r)
			roundErr = wv.assemble(msgs, lo, hi)
			if roundErr == nil && len(wv.iov) > 0 {
				var issued float64
				issued, roundErr = f.writeBehind(wv.segs, wv.iov, wv.bytes, int(r))
				f.killPoint(fault.KillAfterIssue)
				f.sp.Record(span.AggWrite, int(r), issued, f.comm.Clock(), wv.bytes, -1)
			}
		}
		// The write's bytes have landed; recycle the messages it
		// referenced, which empties the table for round r+1's exchange.
		recycleRound(msgs)
		// Round r+1's exchange carries this round's outcome; after the last
		// round, one closing agreement does.
		var verdict error
		if r+1 < plan.rounds {
			verdict = frontend(r+1, roundErr)
		} else {
			verdict = f.agree(r, roundErr)
		}
		if verdict != nil {
			// Some rank failed round r, and every rank learnt it from the
			// same allreduce before any send: nothing was delivered, msgs
			// is empty, and all ranks bail here together.
			return verdict
		}
	}
	return nil
}

// agree is a collective's closing error agreement, recorded as an agree
// span of its last round r.
func (f *File) agree(r int64, err error) error {
	sAgree := f.sp.Begin(span.Agree)
	sAgree.SetRound(int(r))
	err = f.comm.AgreeError(err)
	sAgree.End()
	return err
}

// killPoint terminates this rank here when the fault injector armed a
// rank-kill at this named point (fault.Injector.KillRankAt); a no-op otherwise.
func (f *File) killPoint(point string) {
	if inj := f.fs.Fault(); inj != nil && inj.KillCheck(f.comm.Rank(), point) {
		f.comm.Die()
	}
}

// killHook returns killPoint as a closure for call sites inside helpers
// (sparseExchange), or nil when no injector is installed.
func (f *File) killHook(point string) func() {
	if f.fs.Fault() == nil {
		return nil
	}
	return func() { f.killPoint(point) }
}

// readRounds runs the read rounds of one collective: in virtual time, an
// aggregator keeps up to readDepth rounds' coverage reads in flight while
// the rounds after them pack and exchange and the rounds before them are
// answered. The returned error is already agreed (identical on every rank).
func (f *File) readRounds(plan collectivePlan, x extents, prefix []int64,
	spans []segSpan, dst Sink, myAgg int) error {
	cfg := f.fs.Config()
	depth := readDepth(plan.rounds, cfg.NumServers, cfg.ClientCache, plan.cbbuf)
	s := &f.coll.r
	s.reset(plan.commSize, depth)
	parts, msgs, replies, back, cov := s.parts, s.msgs, s.replies, s.back, &s.cov
	at := func(k int64) *readRound { return &s.round[k%depth] }
	// release drops the coverages of rounds [from, to), which will never be
	// answered.
	release := func(from, to int64) {
		for k := from; k < to; k++ {
			at(k).release()
		}
	}
	// Revocation drain, mirroring writeRounds: release every round's
	// coverage plus every exchange buffer this rank still holds before it
	// leaves the collective (see that loop's comment).
	defer func() {
		if rec := recover(); rec != nil {
			release(0, depth)
			cov.release()
			bufpool.PutAll(parts)
			bufpool.PutAll(replies)
			recycleRound(msgs)
			recycleRound(back)
			panic(rec)
		}
	}()

	// settle moves the clock past round k's read, if this rank issued one:
	// the round's verdict may be agreed from here on.
	settle := func(k int64) {
		if rd := at(k); rd.io {
			f.settle(rd.left, rd.end)
			f.sp.Record(span.AggRead, int(k), rd.issued, f.comm.Clock(), int64(len(rd.data)), -1)
		}
	}
	// answer finishes an agreed round: every aggregator replies to each rank
	// it heard from, out of its coverage, and the replies are scattered into
	// dst. The reply leg agrees nothing: the round is known good, so every
	// aggregator this rank sent a request to answers it, and nobody else
	// does. Its spans sit under the collective, tagged with their round.
	answer := func(k int64) {
		rd := at(k)
		if rd.io {
			f.buildReplies(rd, replies)
			rd.release()
		}
		sReply := f.sp.Begin(span.ReplyXchg)
		sReply.SetRound(int(k))
		deliver(f.comm, replies, back, roundTag(k, 1), rd.sent, nil)
		sReply.End()
		sScatter := f.sp.Begin(span.Scatter)
		sScatter.SetRound(int(k))
		s.clip = scatterReplies(dst, plan, x, prefix, spans, k, back, s.clip)
		sScatter.End()
		recycleRound(back)
	}

	kill := f.killHook(fault.KillMidExchange)
	oldest := int64(0) // the oldest round not yet answered
	for r := int64(0); r < plan.rounds; r++ {
		// Round r's exchange carries the verdict on round r−depth+1 once
		// depth−1 rounds have followed it, after its read's end.
		carry := depth > 1 && r-oldest == depth-1
		var pending error
		if carry {
			settle(oldest)
			pending = at(oldest).err
		}
		// Frontend: ship request segment lists to the aggregators.
		rd := at(r)
		f.killPoint(fault.KillBeforePack)
		sRound := f.sp.Begin(span.Round)
		sRound.SetRound(int(r))
		sPack := f.sp.Begin(span.Pack)
		rd.sent, s.clip = f.packReadRound(plan, x, prefix, spans, r, parts, s.clip, sPack)
		sPack.End()
		verdict := sparseExchange(f.comm, f.sp, parts, msgs, s.counts, pending, roundTag(r, 0), kill)
		sRound.End()
		if verdict != nil {
			// Some rank failed round oldest, and every rank learnt it here,
			// BEFORE answer(oldest): a failed aggregator has no data to send
			// back, and the reply leg expects a fixed number of messages.
			// Nothing was delivered (msgs is empty; recycled all the same),
			// and no round in flight will be answered.
			recycleRound(msgs)
			release(oldest, r)
			return verdict
		}
		// Backend: merge the requests into one coverage read, issued now;
		// the clock moves on once its request has left the client link.
		rd.io, rd.err = false, nil
		if myAgg >= 0 {
			lo, hi := plan.window(myAgg, r)
			rd.err = cov.assemble(msgs, lo, hi)
			rd.io = rd.err == nil && !cov.empty()
		}
		recycleRound(msgs)
		if rd.io {
			f.issueRead(s, int(r%depth))
		}
		if carry {
			answer(oldest)
			oldest++
		}
	}
	// The rounds still in flight have no later exchange: they settle, and
	// one closing agreement carries their verdicts, ahead of their replies.
	var pending error
	for k := oldest; k < plan.rounds; k++ {
		settle(k)
		if pending == nil {
			pending = at(k).err
		}
	}
	if err := f.agree(plan.rounds-1, pending); err != nil {
		release(oldest, plan.rounds)
		return err
	}
	for k := oldest; k < plan.rounds; k++ {
		answer(k)
	}
	return nil
}

// issueRead issues the coverage read an aggregator just assembled in s.cov
// for its round in flight s.round[g], from the rank's clock, which then
// takes the time the request left the client link; the read's end is
// settled later (readRounds). The bytes have landed when the read returns,
// and the round holds them until it is answered (readScratch.hold). A
// failed read holds nothing: its verdict will fail the collective.
func (f *File) issueRead(s *readScratch, g int) {
	rd, cov := &s.round[g], &s.cov
	rd.issued = f.comm.Clock()
	rd.left, rd.end, rd.err = f.pf.ReadAhead(rd.issued, cov.segs, [][]byte{cov.data})
	f.killPoint(fault.KillAfterIssue)
	f.settle(rd.issued, rd.left)
	if rd.err != nil {
		cov.release()
		return
	}
	s.hold(g)
}
