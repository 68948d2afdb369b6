package mpi

// Rank-failure detection (DESIGN.md §8). A rank that crashes outright would
// leave its peers blocked in a receive forever; this file turns that into an
// error every survivor sees alike, in two parts:
//
//   - a failure detector that works by quiescence and is always on. Ranks
//     die only via Comm.Die (mpiio calls it where the fault injector's
//     KillRankAt armed a kill), so "dead" is ground truth here and
//     nothing has to be guessed from silence. The world counts the ranks that are neither parked in a
//     receive nor gone; the goroutine that brings the count to zero runs
//     the detector, because at that instant no message can ever be sent
//     again and the world's state is the same on every run of the same
//     program. If some rank is dead, the world communicator is REVOKED, at
//     the latest clock among the parked ranks plus ftDetectLatency of
//     virtual time — the delay a real runtime's heartbeat pays, charged
//     where the simulator charges everything else. If no rank is dead,
//     nothing can ever wake the parked ranks: the world aborts with
//     *deadlockError, which names each of them and what it waits on. Global
//     quiescence, not "my source is dead", is the rule because of AnySource
//     receives (sparseExchange, the gather collectives); and Die itself
//     revokes nothing, because that would interrupt the survivors wherever
//     the scheduler happened to have them.
//
//   - revocation: once the world is revoked, every pending and future
//     operation panics *revokedError carrying the same failed-rank set on
//     every survivor. The set is agreed through shared memory (one atomic
//     pointer), not a collective, so agreement itself can never block on
//     the dead. The I/O layers catch the panic at their collective entry
//     points with CatchRevoked and return it as an error.
//
// There is no recovery: nothing completes on a revoked world, as with an MPI
// that has no ULFM extensions. There is no wall clock, no background
// goroutine and nothing to configure: a world is its ranks.
//
// The world is revoked at most once. Its failed set is every rank dead at
// that quiescence, the same on every survivor; after it nobody can park
// again, so a later death changes nothing any survivor sees.

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"pnetcdf/internal/iostat"
	"pnetcdf/internal/span"
)

// ftDetectLatency is the virtual time, in seconds, between the moment the
// last survivor blocks after a rank died and the moment the world is
// revoked: the heartbeat timeout of a real runtime, which a survivor pays
// once per failure, so a killed run's clocks show the detection. It is a constant of the model — not a hint, flag,
// environment variable or NetConfig field — because nothing in the
// reproduction depends on tuning it.
const ftDetectLatency = 0.3

// revokedError is the error carried by the panic every operation on a revoked
// world raises: a rank died, and no collective can complete any more.
// Failed holds the ranks found dead when the world was revoked (sorted).
// Catch it at a collective entry point with CatchRevoked.
type revokedError struct {
	Failed []int
}

func (e *revokedError) Error() string {
	return fmt.Sprintf("mpi: communicator revoked (failed ranks %v)", e.Failed)
}

// AsRevoked unwraps err to its *revokedError, if it is one.
func AsRevoked(err error) (*revokedError, bool) {
	// The common case — a collective that succeeded — stays off the heap:
	// errors.As needs rv's address, which moves rv there.
	if err == nil {
		return nil, false
	}
	var rv *revokedError
	if errors.As(err, &rv) {
		return rv, true
	}
	return nil, false
}

// CatchRevoked runs fn, converting a *revokedError panic into an error
// return. Every other panic (including errAborted) propagates. It is the
// boundary at which mpiio and core turn a revocation raised deep inside a
// collective into the error their call returns.
func CatchRevoked(fn func() error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if rv, ok := rec.(*revokedError); ok {
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
type rankKilled struct{}

// ftState is the world's failure-detector state, part of world by value.
type ftState struct {
	// running counts the ranks that are neither parked in recv nor
	// gone (returned, died, unwound), plus one for a detector at work.
	//
	// Invariant: the count may over-state the running ranks for an
	// instant, never under-state them. A rank takes itself off the count
	// under its own mailbox lock, after a scan of its queue found no match;
	// whoever then makes that mailbox worth another scan — a sender, an
	// abort, a revocation — puts the owner back on the count under the same
	// lock, before the owner has woken (world.wake). So zero is exact:
	// every live rank is asleep on a queue that holds nothing for it, and
	// no rank is left to send.
	running atomic.Int32

	// revoked is the world's revocation, stored once by the detector; nil
	// until then.
	revoked atomic.Pointer[revocation]
}

// revocation is the world's revocation: the agreed failed set and the
// virtual time it was detected. It is never changed once made.
type revocation struct {
	failed []int // sorted
	at     float64
}

// parkedRecv describes one rank blocked in a receive: who it is and what
// it waits for. The detector reads these at quiescence; *deadlockError
// carries them to the caller.
type parkedRecv struct {
	Rank   int    // the blocked rank
	Source int    // rank it waits for, or AnySource
	Tag    int    // tag it waits for, or anyTag
	Op     string // collective it is inside; "" for a user Recv
	Seq    int64  // that collective's sequence number

	clock float64
}

// deadlockError is the error Run returns when every live rank is blocked in a
// receive and no rank has died: no message can ever arrive, and there is no
// failure to report — a receive from a rank that returned without sending,
// or mismatched collectives. Parked lists the blocked ranks in rank order.
type deadlockError struct {
	Parked []parkedRecv
}

func (e *deadlockError) Error() string {
	var b strings.Builder
	b.WriteString("mpi: deadlock: every live rank is blocked in a receive that no message can satisfy:")
	for i, p := range e.Parked {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, " rank %d waits on ", p.Rank)
		if p.Source == AnySource {
			b.WriteString("any source")
		} else {
			fmt.Fprintf(&b, "rank %d", p.Source)
		}
		b.WriteString(" (")
		if p.Op != "" {
			fmt.Fprintf(&b, "collective %d %s, ", p.Seq, p.Op)
		}
		if p.Tag == anyTag {
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
func (w *world) wake(b *mailbox) {
	if b.parked {
		w.ft.running.Add(1)
		b.parked = false
		b.cond.Signal()
	}
}

// rankExited takes a rank that returned, died or unwound off the running
// count; like a parking rank, the one that brings it to zero runs the
// detector.
func (w *world) rankExited() {
	if w.ft.running.Add(-1) == 0 {
		w.quiescent()
	}
}

// quiescent runs the detector; the caller just brought the running count
// to zero and holds no mailbox lock. The detector keeps one credit on the
// count for as long as it works: the ranks it wakes start running while it
// is still walking the mailboxes, and one of them parking again (waiting
// for a peer the walk has not reached) must not be taken for a second
// quiescence. If the count is zero again once the credit is returned,
// everything woken has already gone back to sleep, and that is one.
func (w *world) quiescent() {
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
func (w *world) detect() bool {
	var parked []parkedRecv
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
	var failed []int
	for r, b := range w.boxes {
		if b.dead.Load() {
			failed = append(failed, r)
		}
	}
	if len(failed) == 0 {
		w.abort(&deadlockError{Parked: parked})
		return true
	}
	var at float64 // latest clock among the parked ranks
	for _, p := range parked {
		at = max(at, p.clock)
	}
	w.revoke(failed, at+ftDetectLatency)
	return true
}

// Die terminates the calling rank mid-operation, simulating a crash: the
// rank's goroutine unwinds (deferred cleanups run, matching a real
// process's closed descriptors) and never communicates again. It wakes
// nobody: its peers run on until they can go no further without it, and
// the detector then revokes the world. Never returns.
func (c *Comm) Die() {
	c.world.boxes[c.rank].dead.Store(true)
	panic(rankKilled{})
}

// revoke revokes the world: failed — the ranks found dead, sorted — is its
// failed set, detected at virtual time at, and every parked rank is woken to
// observe it. Only the detector calls it, and at most once: after it nobody
// can park again.
func (w *world) revoke(failed []int, at float64) {
	w.ft.revoked.Store(&revocation{failed: failed, at: at})
	for _, b := range w.boxes {
		b.mu.Lock()
		w.wake(b)
		b.mu.Unlock()
	}
}

// ftCheckRevoked panics the revocation if the world is revoked. The
// fast path is one atomic load. The first time the rank meets the
// revocation it pays for the detection: its clock moves to the revocation's
// time, and the wait is recorded (ft_failures_detected + an ft_detect span
// of that length).
func (c *Comm) ftCheckRevoked() {
	rv := c.world.ft.revoked.Load()
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
	panic(&revokedError{Failed: rv.failed})
}
