package mpiio

// The two-phase round loops (DESIGN.md §13): one per direction. A round has
// a frontend every rank runs (pack, exchange) and a backend only aggregators
// run (merge what was received, one vectored pfs request). The overlap is
// virtual, the sequence real: a request moves its bytes before it returns,
// but the rank clock takes the request's virtual end only after the
// neighbouring round's communication, so in virtual time the request runs
// while the ranks exchange:
//
//	write round r:  issue(r) → [pack(r+1) → exchange(r+1) ⊇ verdict(r−1)] → settle(r)
//	read round r:   pack(r) → exchange(r) ⊇ verdict(r−1) → issue(r)
//	                → [replies(r−1) → scatter(r−1)] → settle(r)
//
// The bracketed step is what hides the request: it exists in every write
// round but the last and every read round but the first. Elsewhere settle(r)
// follows issue(r) at once, so a one-round plan is exactly pack → exchange →
// WriteVec/ReadV → agree (→ replies → scatter).
//
// Settling advances the clock to max(clock, end) (File.settle), and each
// request is settled before the next is issued, so one rank's requests never
// overlap each other in virtual time either. A transient failure is retried
// at once, from its issue time, under the file's retry policy
// (File.issuePF); the request's end is the end of that retry chain.
//
// One agreement per round. An exchange's count allreduce (sparseExchange) is
// also the error agreement on the newest round whose outcome every rank
// knows: on a write, round r+1's exchange carries round r−1's (its request
// was settled in the previous iteration); on a read, round r's exchange
// carries round r−1's, still ahead of answer(r−1), so a failed aggregator is
// never expected to reply. The rounds no later exchange can carry — R−2 and
// R−1 of a write, R−1 of a read — go to one closing AgreeError. A collective
// of R rounds thus enters 1 + R + 1 allreduces (plan, exchanges, closing
// agreement) where it used to enter 1 + 2R, and a one-round plan keeps the
// classic sequence. On a failed verdict every rank learns it from the same
// allreduce before any send: nothing is delivered, every buffer is recycled,
// and all ranks return together. Every rank runs the identical collective
// sequence, so no rank hangs, every rank returns the same error, and a retry
// duplicates no write (writes are idempotent full rewrites — a write round
// issued before the verdict on an earlier one rewrites its window with the
// caller's bytes either way).
//
// Buffer lifetime: the exchange hands every packed message to its receiver
// (sparseExchange), so a rank holds only what it received. The write loop
// keeps one table of received messages: the aggregator's iovec references
// their payloads in place, and they go back to the pool (recycleRound →
// bufpool.PutAll) as soon as the round's write returns, before the next
// exchange refills the table. On the read side the request bookkeeping and
// the coverage go by generation (r & 1), because round r−1 is answered after
// round r is read. The file's bytes do not depend on the round count.

import (
	"cmp"

	"pnetcdf/internal/bufpool"
	"pnetcdf/internal/fault"
	"pnetcdf/internal/pfs"
	"pnetcdf/internal/span"
)

// writeRounds runs the write rounds of one collective. The returned error is
// already agreed (identical on every rank).
func (f *File) writeRounds(plan collectivePlan, segs []pfs.Segment, prefix []int64,
	spans []segSpan, src Source, myAgg int, prog *ftProgress) error {
	s := newWriteScratch(plan)
	parts, msgs, wv := s.parts, s.msgs, &s.wv
	// A communicator revocation unwinds this loop as a panic from any of
	// its collectives. Before the failover replays rounds, every buffer this
	// rank still holds is released: what it packed but never handed over and
	// what it received (PutAll nils slots, so a partially recycled table is
	// safe to recycle again). No request is left to join: each one's bytes
	// have landed when it returns.
	defer func() {
		if rec := recover(); rec != nil {
			bufpool.PutAll(parts)
			recycleRound(msgs)
			panic(rec)
		}
	}()

	// frontend packs round r and exchanges it into msgs; the exchange's count
	// allreduce carries pending, this rank's outcome of an earlier round, and
	// frontend returns the agreed verdict on it. The round span covers only
	// this; the aggregator's write is recorded on its own, under the
	// collective, with the interval it took in virtual time.
	kill := f.killHook(fault.KillMidExchange)
	frontend := func(r int64, pending error) error {
		f.killPoint(fault.KillBeforePack)
		sRound := f.sp.Begin(span.Round)
		sRound.SetRound(int(r))
		sPack := f.sp.Begin(span.Pack)
		s.clip = f.packWriteRound(plan, segs, prefix, spans, src, r, parts, s.clip, sPack)
		sPack.End()
		err := sparseExchange(f.comm, f.sp, parts, msgs, s.counts, pending, roundTag(r, 0), kill)
		sRound.End()
		return err
	}
	write := func(t float64) (float64, error) {
		return f.pf.WriteVec(t, wv.segs, wv.iov)
	}

	_ = frontend(0, nil) // carries no round: the verdict is nil
	var prev error       // round r-1's outcome, carried by round r+1's exchange
	for r := int64(0); r < plan.rounds; r++ {
		last := r+1 == plan.rounds
		// Backend: merge what this aggregator received into one vectored
		// write whose iovec points straight into the message payloads — no
		// coalescing copy. A message the merge rejects fails the round like
		// a failed write does.
		var roundErr error
		io := false
		if myAgg >= 0 {
			lo, hi := plan.window(myAgg, r)
			roundErr = wv.assemble(msgs, lo, hi)
			io = roundErr == nil && len(wv.iov) > 0
		}
		issued := f.comm.Clock()
		var end float64
		if io {
			end, roundErr = f.issuePF(issued, write)
			f.killPoint(fault.KillAfterIssue)
		}
		// The write is down; recycle the messages it referenced, which
		// empties the table for round r+1's exchange.
		recycleRound(msgs)
		var verdict error
		if !last {
			verdict = frontend(r+1, prev)
			if verdict == nil && r > 0 {
				prog.roundAgreed(r - 1)
			}
		}
		if io {
			f.settle(issued, end)
			f.sp.Record(span.AggWrite, int(r), issued, f.comm.Clock(), wv.bytes, -1)
		}
		if verdict != nil {
			// Some rank failed round r-1, and every rank learnt it from the
			// same allreduce before any send: nothing was delivered, msgs
			// is empty, and all ranks bail here together.
			return verdict
		}
		if last {
			// No next exchange: one agreement carries this round's outcome
			// and round R-2's (prev; nil for a one-round plan).
			if err := f.agree(r, cmp.Or(prev, roundErr)); err != nil {
				return err
			}
			prog.roundAgreed(r)
		}
		prev = roundErr
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

// readRounds runs the read rounds of one collective: in virtual time, round
// r's coverage read runs while round r-1's replies travel and scatter. The
// returned error is already agreed (identical on every rank).
func (f *File) readRounds(plan collectivePlan, segs []pfs.Segment, prefix []int64,
	spans []segSpan, dst Sink, myAgg int, prog *ftProgress) error {
	// The request bookkeeping and the coverage go by generation (r & 1):
	// round r's must survive until its scatter, after round r+1 has packed
	// and read. The request messages themselves are merged and recycled
	// inside the round — a coverage references none of their bytes.
	s := newReadScratch(plan)
	parts, msgs, replies, back := s.parts, s.msgs, s.replies, s.back
	var sent [2]int // aggregators this rank sent a request to: replies to expect
	// Revocation drain, mirroring writeRounds: release both coverages plus
	// every exchange buffer this rank still holds before the failover
	// replays (see that loop's comment).
	defer func() {
		if rec := recover(); rec != nil {
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

	// answer finishes an agreed round: every aggregator replies to each rank
	// it heard from, out of its coverage, and the replies are scattered into
	// dst. The reply leg agrees nothing: the round is known good, so every
	// aggregator this rank sent a request to answers it, and nobody else
	// does. Its spans sit under the collective, tagged with their round.
	answer := func(r int64) {
		g := r & 1
		if cov := &s.cov[g]; !cov.empty() {
			f.buildReplies(cov, replies)
			cov.release()
		}
		sReply := f.sp.Begin(span.ReplyXchg)
		sReply.SetRound(int(r))
		deliver(f.comm, replies, back, roundTag(r, 1), sent[g], nil)
		sReply.End()
		sScatter := f.sp.Begin(span.Scatter)
		sScatter.SetRound(int(r))
		scatterReplies(dst, plan, s.reqs[g], back)
		sScatter.End()
		recycleRound(back)
		prog.roundAgreed(r)
	}

	kill := f.killHook(fault.KillMidExchange)
	var cov *coverage // the current round's coverage, read by read
	read := func(t float64) (float64, error) {
		return f.pf.ReadV(t, cov.segs, cov.data)
	}
	var pending error // round r-1's outcome, carried by round r's exchange
	for r := int64(0); r < plan.rounds; r++ {
		g := r & 1
		// Frontend: ship request segment lists to the aggregators; reqs[g]
		// remembers the order so the replies can be scattered back.
		f.killPoint(fault.KillBeforePack)
		sRound := f.sp.Begin(span.Round)
		sRound.SetRound(int(r))
		sPack := f.sp.Begin(span.Pack)
		sent[g] = f.packReadRound(plan, segs, prefix, spans, r, parts, s.reqs[g], sPack)
		sPack.End()
		verdict := sparseExchange(f.comm, f.sp, parts, msgs, s.counts, pending, roundTag(r, 0), kill)
		sRound.End()
		if verdict != nil {
			// Some rank failed round r-1, and every rank learnt it here,
			// BEFORE answer(r-1): a failed aggregator has no data to send
			// back, and the reply leg expects a fixed number of messages.
			// Nothing was delivered (msgs is empty; recycled all the same),
			// and round r-1's coverage will never be answered.
			recycleRound(msgs)
			s.cov[g^1].release()
			return verdict
		}
		// Backend: merge the requests into one coverage read.
		cov = &s.cov[g]
		var roundErr error
		io := false
		if myAgg >= 0 {
			lo, hi := plan.window(myAgg, r)
			roundErr = cov.assemble(msgs, lo, hi)
			io = roundErr == nil && !cov.empty()
		}
		recycleRound(msgs)
		issued := f.comm.Clock()
		var end float64
		if io {
			end, roundErr = f.issuePF(issued, read)
			f.killPoint(fault.KillAfterIssue)
		}
		if r > 0 {
			answer(r - 1)
		}
		if io {
			f.settle(issued, end)
			f.sp.Record(span.AggRead, int(r), issued, f.comm.Clock(), int64(len(cov.data)), -1)
		}
		pending = roundErr
	}
	// The last round has no next exchange: its verdict is one agreement of
	// its own, still ahead of its reply leg.
	if err := f.agree(plan.rounds-1, pending); err != nil {
		s.cov[(plan.rounds-1)&1].release()
		return err
	}
	answer(plan.rounds - 1)
	return nil
}
