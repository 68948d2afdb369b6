package mpi

// Rank-failure detection (DESIGN.md §8). A rank that crashes outright would
// leave its peers blocked in a receive forever; this file turns that into an
// error every survivor sees alike, in two parts:
//
//   - a failure detector that works by quiescence and is always on. Ranks
//     die only via Comm.Die (the fault injector's KillRank calls it), so
//     "dead" is ground truth here and nothing has to be guessed from
//     silence. The world counts the ranks that are neither parked in a
//     receive nor gone; the goroutine that brings the count to zero runs
//     the detector, because at that instant no message can ever be sent
//     again and the world's state is the same on every run of the same
//     program. Every communicator some rank is parked on that has a dead
//     member is REVOKED, at the latest clock among the ranks parked on it
//     plus FTDetectLatency of virtual time — the delay a real runtime's
//     heartbeat pays, charged where the simulator charges everything else.
//     If no parked communicator has a dead member, nothing can ever wake the
//     parked ranks: the world aborts with *ErrDeadlock, which names each of
//     them and what it waits on. Global quiescence, not "my source is dead",
//     is the rule because of AnySource receives (sparseExchange, the gather
//     collectives); and Die itself revokes nothing, because that would
//     interrupt the survivors wherever the scheduler happened to have them.
//
//   - revocation: once a communicator is revoked, every pending and future
//     operation on it panics *ErrRevoked carrying the same failed-rank set
//     on every survivor. The set is agreed through shared memory (the
//     world's revocation table), not a collective, so agreement itself can
//     never block on the dead. The I/O layers catch the panic at their
//     collective entry points with CatchRevoked and return it as an error.
//
// There is no recovery: nothing completes on a revoked communicator, as
// with an MPI that has no ULFM extensions. There is no wall clock, no
// background goroutine and nothing to configure: a world is its ranks.
//
// A communicator is revoked at most once. Its failed set is whatever was
// dead at that quiescence, the same on every survivor; after it nobody can
// park on the communicator again, so a later death shows only on another
// communicator the dead rank shares with a blocked survivor.

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
// the communicator is revoked: the heartbeat timeout of a real runtime,
// which a survivor pays once per failure, so a killed run's clocks show the
// detection. It is a constant of the model — not a hint, flag,
// environment variable or NetConfig field — because nothing in the
// reproduction depends on tuning it.
const FTDetectLatency = 0.3

// ErrRevoked is the error carried by the panic every operation on a revoked
// communicator raises: the communicator lost a member and can no longer
// complete collectives. Failed holds the communicator ranks of the dead
// members (sorted). Catch it at a collective entry point with CatchRevoked.
type ErrRevoked struct {
	Failed []int
}

func (e *ErrRevoked) Error() string {
	return fmt.Sprintf("mpi: communicator revoked (failed ranks %v)", e.Failed)
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
// boundary at which mpiio and core turn a revocation raised deep inside a
// collective into the error their call returns.
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
	// running counts the ranks that are neither parked in recv nor
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
	revoked map[int64]*revocation // commID -> revocation
}

// revocation is one communicator's revocation: the agreed failed set and the
// virtual time it was detected. It is never changed once made, so it is safe
// to read without the ftState lock.
type revocation struct {
	failed []int // world ranks, sorted
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
	Op        string // collective it is inside; "" for a user Recv
	Seq       int64  // that collective's sequence number on Comm

	group []int // the communicator's members (world ranks)
	clock float64
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
// is still walking the mailboxes, and one of them parking again (on a
// communicator nobody revoked, waiting for a peer the walk has not reached)
// must not be taken for a second quiescence. If the count is zero again once the
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
// survivor runs at once, and its mailbox's wait record with it.
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
			if w.boxes[wr].dead.Load() {
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

// revoke revokes commID: failedWorld — the members found dead — is its
// failed set, detected at virtual time at, and every parked rank is woken to
// observe it (those parked on other communicators scan, find nothing and
// park again). Only the detector calls it, and for a communicator at most
// once: after it nobody can park on commID.
func (w *World) revoke(commID int64, failedWorld []int, at float64) {
	ft := &w.ft
	sort.Ints(failedWorld)
	ft.mu.Lock()
	if ft.revoked == nil {
		ft.revoked = map[int64]*revocation{}
	}
	ft.revoked[commID] = &revocation{failed: failedWorld, at: at}
	ft.revGen.Add(1)
	ft.mu.Unlock()
	for _, b := range w.boxes {
		b.mu.Lock()
		w.wake(b)
		b.mu.Unlock()
	}
}

// revokedInfo returns the calling communicator's revocation, if it has one.
func (c *Comm) revokedInfo() *revocation {
	ft := &c.world.ft
	if ft.revGen.Load() == 0 {
		return nil
	}
	ft.mu.Lock()
	rv := ft.revoked[c.ctx>>32]
	ft.mu.Unlock()
	return rv
}

// Revoked reports whether the communicator has been revoked. After it
// returns true, every operation on this communicator panics *ErrRevoked.
func (c *Comm) Revoked() bool { return c.revokedInfo() != nil }

// revokedErr builds the caller-facing *ErrRevoked: failed world ranks
// translated to communicator ranks.
func (c *Comm) revokedErr(rv *revocation) *ErrRevoked {
	var failed []int
	for cr, wr := range c.group {
		if containsInt(rv.failed, wr) {
			failed = append(failed, cr)
		}
	}
	return &ErrRevoked{Failed: failed}
}

// ftCheckRevoked panics the revocation if the communicator is revoked. The
// fast path is one atomic load. The first time the rank meets the
// revocation it pays for the detection: its clock moves to the revocation's
// time, and the wait is recorded (ft_failures_detected + an ft_detect span
// of that length).
func (c *Comm) ftCheckRevoked() {
	rv := c.revokedInfo()
	if rv == nil {
		return
	}
	if !c.ftObserved {
		c.ftObserved = true
		blocked := c.proc.clock
		c.proc.clock = max(blocked, rv.at)
		c.proc.stats.Add(iostat.FTFailuresDetected, 1)
		c.proc.spans.Record(span.FTDetect, -1, blocked, c.proc.clock, 0, -1)
	}
	panic(c.revokedErr(rv))
}

func containsInt(sorted []int, v int) bool {
	for _, x := range sorted {
		if x == v {
			return true
		}
	}
	return false
}
