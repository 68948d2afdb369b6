package mpi

import (
	"fmt"
	"os"
	"sync"
)

// Runtime collective-sequence checking, the dynamic complement of nclint's
// static collsym checker (internal/analysis): MPI requires every member of a
// communicator to call collective operations in the same order, and a
// violation normally shows up late, as an *ErrDeadlock once the whole world
// has run dry (one rank waits in a Barrier for a peer that is inside a
// Bcast) or, worse, as one collective silently consuming another's
// messages, since both derive the same context from the lockstep sequence
// counter.
//
// With PNETCDF_CHECK_COLLECTIVES=1 in the environment, every collective
// entry registers its operation name under its context (commID<<32 | seq) in
// a world-level table before any message moves. The first rank to arrive
// records its op; any rank arriving at the same context with a different op
// aborts the whole world with an error naming both ranks and both
// operations — a diagnosis at the first wrong call. Off by default: the check
// costs a map operation under a mutex per collective per rank.
const collCheckEnv = "PNETCDF_CHECK_COLLECTIVES"

// collCheck is the world-level registry of in-flight collective operations.
type collCheck struct {
	mu  sync.Mutex
	ops map[int64]*collOp
}

type collOp struct {
	name string
	rank int // communicator rank of the first arrival
	seen int
}

// collCheckFromEnv returns a registry when the environment asks for the
// check and nil otherwise — the only environment variable anything under
// internal/ reads (noclock_test.go at the module root).
func collCheckFromEnv() *collCheck {
	if os.Getenv(collCheckEnv) != "1" {
		return nil
	}
	return &collCheck{ops: map[int64]*collOp{}}
}

// record notes that the calling rank entered collective op under context
// ctx, aborting the world on a name mismatch. Entries are dropped once all
// members of the communicator have checked in, so the table stays bounded by
// the number of concurrently in-flight collectives.
func (cc *collCheck) record(c *Comm, ctx int64, op string) {
	cc.mu.Lock()
	e := cc.ops[ctx]
	if e == nil {
		cc.ops[ctx] = &collOp{name: op, rank: c.rank, seen: 1}
		cc.mu.Unlock()
		return
	}
	if e.name != op {
		firstName, firstRank := e.name, e.rank
		cc.mu.Unlock()
		c.Abort(fmt.Errorf(
			"mpi: collective sequence mismatch on communicator %d, op %d: rank %d called %s but rank %d called %s (all members must call collectives in the same order)",
			ctx>>32, ctx&0x7FFFFFFF, firstRank, firstName, c.rank, op))
	}
	e.seen++
	if e.seen == c.Size() {
		delete(cc.ops, ctx)
	}
	cc.mu.Unlock()
}

// purgeComm drops every in-flight registration of communicator commID.
//
// The registry's bounded-size argument assumes every member of a
// communicator eventually checks in; a rank that dies (Comm.Die) never
// does, so each collective it missed would leave a permanent entry —
// worse, after a failover the survivors' replay on the shrunken
// communicator is counted against a smaller Size, while the stale entries
// of the revoked communicator could only be freed by a ghost. Revocation
// therefore purges the revoked communicator's entries wholesale; its
// sequence is over. Entries on other communicators that also contained the
// dead rank but were never revoked (nobody touched them again) still leak
// until the world ends — a bounded, documented cost of the audit trade-off
// rather than tracking full membership per entry.
func (cc *collCheck) purgeComm(commID int64) {
	cc.mu.Lock()
	for ctx := range cc.ops {
		if ctx>>32 == commID {
			delete(cc.ops, ctx)
		}
	}
	cc.mu.Unlock()
}
