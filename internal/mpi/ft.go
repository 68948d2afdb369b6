package mpi

// ULFM-style rank-failure tolerance (DESIGN.md §8). PR 2's error agreement
// assumes every rank survives to vote; a rank that crashes outright leaves
// its peers blocked in recv forever. This file adds the three ULFM
// primitives on top of the simulated runtime:
//
//   - a failure detector that works by quiescence and is always on. Ranks
//     die only via Comm.Die (the fault injector's KillRank calls it), so
//     "dead" is ground truth here and nothing has to be guessed from
//     silence. The world counts the ranks that are neither parked in a
//     receive nor gone; the goroutine that brings the count to zero runs
//     the detector, because at that instant no message can ever be sent
//     again and the world's state is the same on every run of the same
//     program. Every communicator some rank is parked on that has a dead
//     member (beyond what the receive is pinned to) is REVOKED, at the
//     latest clock among the ranks parked on it plus FTDetectLatency of
//     virtual time — the delay a real runtime's heartbeat pays, charged
//     where the simulator charges everything else. If no parked
//     communicator has a dead member, nothing can ever wake the parked
//     ranks: the world aborts with *ErrDeadlock, which names each of them
//     and what it waits on. Global quiescence, not "my source is dead", is
//     the rule because of AnySource receives (sparseExchange, the gather
//     collectives); and Die itself revokes nothing, because that would
//     interrupt the survivors wherever the scheduler happened to have them.
//
//   - revocation: once a communicator is revoked, every pending and future
//     operation on it panics *ErrRevoked carrying the same failed-rank set
//     on every survivor. The set is agreed through shared memory (the
//     world's revocation table), not a collective, so agreement itself can
//     never block on the dead. mpiio catches the panic at the collective
//     I/O boundary via CatchRevoked.
//
//   - Comm.AgreeFT + Comm.Shrink: a survivor-only reduction usable on the
//     revoked communicator (the reductions' binomial tree over the dense
//     survivor list, contexts in a reserved band) and a dense survivor
//     communicator for everything afterwards.
//
// There is no wall clock, no background goroutine and nothing to configure:
// a world is its ranks.
//
// Honest limits: every death known at a quiescence is detected and agreed
// symmetrically — the failed set is whatever was dead at that instant, the
// same on every survivor. A rank that dies later, while the survivors are
// handling the first revocation, is detected the same way (the pinned
// receives of AgreeFT park, the world goes quiet, the generation grows),
// but the handlers above this package treat that second *ErrRevoked as
// final: no survivor hangs, there is no second failover.

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"pnetcdf/internal/iostat"
	"pnetcdf/internal/span"
)

// FTDetectLatency is the virtual time, in seconds, between the moment the
// last survivor blocks on a communicator that lost a member and the moment
// the communicator is revoked: the heartbeat timeout of a ULFM runtime,
// which a survivor pays once per failure and which is why a failover shows
// up in sim-MB/s at all. It is a constant of the model — not a hint, flag,
// environment variable or NetConfig field — because nothing in the
// reproduction depends on tuning it.
const FTDetectLatency = 0.3

// ftCtxBit marks a message context as belonging to the post-revocation
// agreement band: bit 30 set, the revocation generation in bits 24-29 (where
// a regular collective keeps its kind, nextOpCtx), and a per-generation
// sequence in bits 0-23. Regular collectives never set bit 30.
const ftCtxBit = int64(1) << 30

// ErrRevoked is the error carried by the panic every operation on a revoked
// communicator raises: the communicator lost a member and can no longer
// complete collectives. Failed holds the communicator ranks of the dead
// members (sorted); Gen is the revocation generation (it grows if further
// members die). Catch it at a failover boundary with CatchRevoked.
type ErrRevoked struct {
	Failed []int
	Gen    int
}

func (e *ErrRevoked) Error() string {
	return fmt.Sprintf("mpi: communicator revoked (failed ranks %v, generation %d)", e.Failed, e.Gen)
}

// AsRevoked unwraps err to its *ErrRevoked, if it is one.
func AsRevoked(err error) (*ErrRevoked, bool) {
	// The common case — a collective that succeeded — stays off the heap:
	// errors.As needs rv's address, which moves rv there.
	if err == nil {
		return nil, false
	}
	var rv *ErrRevoked
	if errors.As(err, &rv) {
		return rv, true
	}
	return nil, false
}

// CatchRevoked runs fn, converting an *ErrRevoked panic into an error
// return. Every other panic (including ErrAborted) propagates. It is the
// boundary at which mpiio's failover catches a revocation raised deep
// inside a collective.
func CatchRevoked(fn func() error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if rv, ok := rec.(*ErrRevoked); ok {
				err = rv
				return
			}
			panic(rec)
		}
	}()
	return fn()
}

// rankKilled is the panic payload of Comm.Die: a simulated rank crash. Run
// treats it as a benign exit of that one goroutine — no world abort, no
// error — leaving its peers to detect the silence.
type rankKilled struct {
	rank   int // world rank
	reason error
}

// ftState is the world's failure-detector state, part of World by value.
type ftState struct {
	// running counts the ranks that are neither parked in recvCore nor
	// gone (returned, died, unwound), plus one for a detector at work.
	//
	// Invariant: the count may over-state the running ranks for an
	// instant, never under-state them. A rank takes itself off the count
	// under its own mailbox lock, after a scan of its queue found no match;
	// whoever then makes that mailbox worth another scan — a sender, an
	// abort, a revocation — puts the owner back on the count under the same
	// lock, before the owner has woken (World.wake). So zero is exact:
	// every live rank is asleep on a queue that holds nothing for it, and
	// no rank is left to send.
	running atomic.Int32

	revGen atomic.Int64 // fast-path gate: total revocations issued

	mu      sync.Mutex
	revoked map[int64]*revokeState // commID -> revocation
}

// revokeState is one communicator's revocation: the agreed failed set, the
// virtual time it was detected, and the shrunken-communicator IDs allocated
// per generation (shared-memory agreement — every survivor reads the same ID
// without messaging).
type revokeState struct {
	failed []int // world ranks, sorted
	gen    int
	at     float64       // virtual time of the latest generation's detection
	shrunk map[int]int64 // generation -> commID of the Shrink result
}

// revokeInfo is an immutable snapshot of a revocation, safe to use without
// the ftState lock.
type revokeInfo struct {
	failed []int // world ranks, sorted
	gen    int
	at     float64
}

// ParkedRecv describes one rank blocked in a receive: who it is and what
// it waits for. The detector reads these at quiescence; *ErrDeadlock
// carries them to the caller.
type ParkedRecv struct {
	WorldRank int    // the blocked rank
	Comm      int64  // ID of the communicator it receives on (0 is the world)
	Source    int    // rank of Comm it waits for, or AnySource
	Tag       int    // tag it waits for, or AnyTag
	Op        string // collective it is inside ("AgreeFT" after a revocation); "" for a user Recv
	Seq       int64  // that collective's sequence number on Comm

	group  []int // the communicator's members (world ranks)
	pinned []int // failed world ranks this receive already knows about
	clock  float64
}

// ErrDeadlock is the error Run returns when every live rank is blocked in a
// receive and no communicator any of them waits on has lost a member: no
// message can ever arrive, and there is no failure to recover from — a
// receive from a rank that returned without sending, mismatched
// collectives, or a dead rank none of the blocked ones shares a
// communicator with. Parked lists the blocked ranks in world-rank order.
type ErrDeadlock struct {
	Parked []ParkedRecv
}

func (e *ErrDeadlock) Error() string {
	var b strings.Builder
	b.WriteString("mpi: deadlock: every live rank is blocked in a receive that no message can satisfy:")
	for i, p := range e.Parked {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, " rank %d waits on ", p.WorldRank)
		if p.Source == AnySource {
			b.WriteString("any source")
		} else {
			fmt.Fprintf(&b, "rank %d", p.Source)
		}
		fmt.Fprintf(&b, " of communicator %d (", p.Comm)
		if p.Op != "" {
			fmt.Fprintf(&b, "collective %d %s, ", p.Seq, p.Op)
		}
		if p.Tag == AnyTag {
			b.WriteString("any tag)")
		} else {
			fmt.Fprintf(&b, "tag %d)", p.Tag)
		}
	}
	return b.String()
}

// wake makes b's owner scan its queue again; the caller holds b.mu. A
// parked owner is put back on the running count first, on its behalf,
// and only then marked awake: the count is already right by the time the
// owner, or anyone else, can look (see ftState.running).
func (w *World) wake(b *mailbox) {
	if b.parked {
		w.ft.running.Add(1)
		b.parked = false
		b.cond.Signal()
	}
}

// rankExited takes a rank that returned, died or unwound off the running
// count; like a parking rank, the one that brings it to zero runs the
// detector.
func (w *World) rankExited() {
	if w.ft.running.Add(-1) == 0 {
		w.quiescent()
	}
}

// quiescent runs the detector; the caller just brought the running count
// to zero and holds no mailbox lock. The detector keeps one credit on the
// count for as long as it works: the ranks it wakes start running while it
// is still walking the mailboxes, and one of them parking again (a survivor
// waiting in AgreeFT for a peer the walk has not reached) must not be
// taken for a second quiescence. If the count is zero again once the
// credit is returned, everything woken has already gone back to sleep, and
// that is one.
func (w *World) quiescent() {
	for {
		w.ft.running.Add(1)
		woke := w.detect()
		if w.ft.running.Add(-1) > 0 || !woke {
			return
		}
	}
}

// detect is the failure detector proper. It runs with the world quiescent
// and reports whether it woke anyone (false: no rank is parked, the world
// is simply over).
//
// It snapshots every parked receive BEFORE its first wake: a woken
// survivor runs at once, and mpiio adopts the shrunken communicator in
// place (*f.comm = *nc), so a communicator read after that is no longer the
// one the rank was parked on.
func (w *World) detect() bool {
	var parked []ParkedRecv
	for _, b := range w.boxes {
		b.mu.Lock()
		if b.parked {
			parked = append(parked, b.wait)
		}
		b.mu.Unlock()
	}
	if len(parked) == 0 {
		return false
	}
	type verdict struct {
		comm int64
		dead []int   // world ranks
		at   float64 // latest clock among the ranks parked on comm
	}
	var verdicts []verdict
	for _, p := range parked {
		var dead []int
		for _, wr := range p.group {
			if w.boxes[wr].dead.Load() && !containsInt(p.pinned, wr) {
				dead = append(dead, wr)
			}
		}
		if len(dead) == 0 {
			continue
		}
		i := 0
		for i < len(verdicts) && verdicts[i].comm != p.Comm {
			i++
		}
		if i == len(verdicts) {
			verdicts = append(verdicts, verdict{comm: p.Comm})
		}
		v := &verdicts[i]
		for _, wr := range dead {
			if !containsInt(v.dead, wr) {
				v.dead = append(v.dead, wr)
			}
		}
		v.at = max(v.at, p.clock)
	}
	if len(verdicts) == 0 {
		w.abort(&ErrDeadlock{Parked: parked})
		return true
	}
	for _, v := range verdicts {
		w.revoke(v.comm, v.dead, v.at+FTDetectLatency)
	}
	return true
}

// Die terminates the calling rank mid-operation, simulating a crash: the
// rank's goroutine unwinds (deferred cleanups run, matching a real
// process's closed descriptors) and never communicates again. It wakes
// nobody: its peers run on until they can go no further without it, and
// the detector then revokes the communicators it belonged to. Never
// returns.
func (c *Comm) Die(reason error) {
	wr := c.group[c.rank]
	c.world.boxes[wr].dead.Store(true)
	panic(rankKilled{rank: wr, reason: reason})
}

// revoke opens commID's next revocation generation: failedWorld — members
// found dead that no earlier generation knew about — joins the failed set,
// detected at virtual time at, and every parked rank is woken to observe it
// (those parked on other communicators scan, find nothing and park again).
// Only the detector calls it.
func (w *World) revoke(commID int64, failedWorld []int, at float64) {
	ft := &w.ft
	ft.mu.Lock()
	rs := ft.revoked[commID]
	if rs == nil {
		if ft.revoked == nil {
			ft.revoked = map[int64]*revokeState{}
		}
		rs = &revokeState{shrunk: map[int]int64{}}
		ft.revoked[commID] = rs
	}
	rs.failed = append(rs.failed, failedWorld...)
	sort.Ints(rs.failed)
	rs.gen++
	rs.at = at
	ft.revGen.Add(1)
	ft.mu.Unlock()
	for _, b := range w.boxes {
		b.mu.Lock()
		w.wake(b)
		b.mu.Unlock()
	}
}

// revokedInfo snapshots the calling communicator's revocation state.
func (c *Comm) revokedInfo() (revokeInfo, bool) {
	ft := &c.world.ft
	if ft.revGen.Load() == 0 {
		return revokeInfo{}, false
	}
	ft.mu.Lock()
	rs := ft.revoked[c.ctx>>32]
	if rs == nil {
		ft.mu.Unlock()
		return revokeInfo{}, false
	}
	ri := revokeInfo{failed: append([]int(nil), rs.failed...), gen: rs.gen, at: rs.at}
	ft.mu.Unlock()
	return ri, true
}

// Revoked reports whether the communicator has been revoked. After it
// returns true, only AgreeFT and Shrink complete on this communicator;
// everything else panics *ErrRevoked.
func (c *Comm) Revoked() bool {
	_, ok := c.revokedInfo()
	return ok
}

// revokedErr builds the caller-facing *ErrRevoked: failed world ranks
// translated to communicator ranks.
func (c *Comm) revokedErr(ri revokeInfo) *ErrRevoked {
	var failed []int
	for cr, wr := range c.group {
		if containsInt(ri.failed, wr) {
			failed = append(failed, cr)
		}
	}
	return &ErrRevoked{Failed: failed, Gen: ri.gen}
}

// panicRevoked raises the revocation on the calling rank. The first time
// the rank meets a generation it pays for the detection: its clock moves to
// the revocation's time, and the wait is recorded (ft_failures_detected +
// an ft_detect span of that length).
func (c *Comm) panicRevoked(ri revokeInfo) {
	if c.ftObserved < ri.gen {
		c.ftObserved = ri.gen
		blocked := c.proc.clock
		c.proc.clock = max(blocked, ri.at)
		c.proc.stats.Add(iostat.FTFailuresDetected, 1)
		c.proc.spans.Record(span.FTDetect, ri.gen, blocked, c.proc.clock, 0, -1)
	}
	panic(c.revokedErr(ri))
}

// ftCheckRevoked panics the revocation if the communicator is revoked (or,
// in pinned mode, revoked beyond the pinned generation). The fast path is
// one atomic load.
func (c *Comm) ftCheckRevoked(pinned *revokeInfo) {
	ri, ok := c.revokedInfo()
	if !ok {
		return
	}
	if pinned != nil && ri.gen <= pinned.gen {
		return // the revocation the caller is already handling
	}
	c.panicRevoked(ri)
}

// nextFTCtx reserves a message context in the post-revocation band for
// generation gen. The per-generation sequence restarts at the generation
// boundary, so all survivors of the same revocation stay in lockstep even
// if their pre-revocation positions differed.
func (c *Comm) nextFTCtx(gen int) int64 {
	if c.ftGen != gen {
		c.ftGen, c.ftSeq = gen, 0
	}
	c.ftSeq++
	return c.ctx | ftCtxBit | int64(gen&ctxKindMask)<<ctxKindSh | c.ftSeq&ctxSeqMask
}

// survivors returns the communicator ranks not in the failed world-rank
// set, in rank order (dense survivor indexing for AgreeFT's trees and for
// Shrink's group).
func (c *Comm) survivors(failedWorld []int) []int {
	var surv []int
	for cr, wr := range c.group {
		if !containsInt(failedWorld, wr) {
			surv = append(surv, cr)
		}
	}
	return surv
}

// AgreeFT is the survivor-safe elementwise reduction: on a healthy
// communicator it is exactly AllreduceI64; on a revoked one it runs the same
// binomial reduction (reduceUp, reduceDown) over the survivors of the
// agreed failed set, indexed by dense survivor position, with message
// contexts in the reserved post-revocation band — it can never wait on a
// dead rank. Like AllreduceI64 it works in place: the result overwrites vals,
// which is returned. It is the only collective (besides Shrink) that
// completes after revocation; failover protocols agree their resume point
// through it.
func (c *Comm) AgreeFT(vals []int64, op Op) []int64 {
	ri, ok := c.revokedInfo()
	if !ok {
		return c.AllreduceI64(vals, op)
	}
	surv := c.survivors(ri.failed)
	t := tree{p: len(surv), me: -1, members: surv, pinned: &ri}
	for i, cr := range surv {
		if cr == c.rank {
			t.me = i
		}
	}
	if t.me < 0 {
		// A dead rank cannot call anything, so this is a caller bug.
		c.Abort(fmt.Errorf("mpi: AgreeFT by failed rank %d", c.rank))
	}
	c.proc.stats.Add(iostat.MPICollectives, 1)
	c.reduceUp(&t, c.nextFTCtx(ri.gen), vec{i: vals}, op)
	c.reduceDown(&t, c.nextFTCtx(ri.gen), vec{i: vals})
	return vals
}

// Shrink returns the dense survivor communicator of a revoked
// communicator: the survivors in rank order, renumbered from 0, under a
// fresh message context. The new communicator ID is agreed through the
// revocation table (one allocation per generation, every survivor reads
// the same ID), so Shrink — like AgreeFT — cannot block on the dead.
func (c *Comm) Shrink() (*Comm, error) {
	ft := &c.world.ft
	ri, ok := c.revokedInfo()
	if !ok {
		return nil, errors.New("mpi: Shrink on a communicator that is not revoked")
	}
	ft.mu.Lock()
	rs := ft.revoked[c.ctx>>32]
	id := rs.shrunk[ri.gen]
	if id == 0 {
		c.world.mu.Lock()
		c.world.commSeq++
		id = c.world.commSeq
		c.world.mu.Unlock()
		rs.shrunk[ri.gen] = id
	}
	ft.mu.Unlock()
	surv := c.survivors(ri.failed)
	group := make([]int, len(surv))
	myRank := -1
	for i, cr := range surv {
		group[i] = c.group[cr]
		if cr == c.rank {
			myRank = i
		}
	}
	if myRank < 0 {
		return nil, fmt.Errorf("mpi: Shrink by failed rank %d", c.rank)
	}
	c.proc.stats.Add(iostat.FTCommShrinks, 1)
	c.proc.spans.Record(span.FTShrink, ri.gen, c.proc.clock, c.proc.clock, 0, -1)
	return &Comm{world: c.world, proc: c.proc, rank: myRank, group: group, ctx: id << 32}, nil
}

func containsInt(sorted []int, v int) bool {
	for _, x := range sorted {
		if x == v {
			return true
		}
	}
	return false
}
