// Package mpi is an in-process simulation of the MPI message-passing
// runtime: ranks are goroutines, point-to-point messages travel over
// tag-matched mailboxes, and the collectives the I/O stack uses (Barrier,
// Bcast, Allreduce, Gather(v), Allgather(v), Alltoall(v)) are implemented on
// top of point-to-point messaging with tree and linear algorithms, the way a
// real MPI library layers them.
//
// # Virtual time
//
// Every rank carries a virtual clock (float64 seconds). Sending a message
// stamps it with the sender's clock; receiving advances the receiver's clock
// to max(local, sendTime + latency + bytes/bandwidth). Collectives therefore
// synchronize clocks the way real collectives synchronize processes. The
// parallel file system (internal/pfs) uses the same convention, so an entire
// parallel I/O benchmark runs under one coherent simulated timeline while
// the data movement itself is performed for real, byte for byte.
//
// # Buffer ownership
//
// A message carries the sender's slice, not a copy of it: sends stay eager
// (they never block), and what moves is custody of the buffer. After
// Send(dst, tag, data) the sender must neither write to data nor recycle
// it; the matching Recv returns the same backing array and the receiver
// owns it from then on. The virtual-time cost model still charges the
// transfer of every byte — only the host memcpy is gone.
//
// Collectives keep MPI's contract that an input buffer is reusable as soon
// as the call returns, except the in-place reductions: AllreduceI64,
// AllreduceF64 and AgreeFT overwrite their input vector with the result and
// return it, like MPI_IN_PLACE. Every reduction (Barrier is one over an
// empty vector) runs one binomial tree and sends its partials in bufpool
// wire buffers, one per tree edge: the receiver folds or decodes the bytes
// straight into its vector and puts the buffer back, so a warm reduction
// allocates nothing. Allgather hands its own wire buffer over as it is.
// Gather and Alltoall copy each caller-owned part once, so every received
// slice has a single owner. Bcast copies the root's payload once
// (BcastOwned takes it over instead) and every message carries that one
// copy: the non-root members all receive the same backing array and must
// treat it as read-only. A short payload goes down a binomial tree; from
// 256 KiB on four or more members it is scattered down the tree and gathered
// around a ring, each message charged only its piece (see Bcast).
//
// The paper's experiments ran on IBM SP-2 systems; this package is the
// substitution for that hardware (see DESIGN.md §2).
package mpi

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"pnetcdf/internal/iostat"
	"pnetcdf/internal/span"
)

// AnySource matches a message from any rank, like MPI_ANY_SOURCE.
const AnySource = -1

// AnyTag matches any user tag, like MPI_ANY_TAG.
const AnyTag = -1

// NetConfig describes the simulated interconnect.
type NetConfig struct {
	// Latency is the one-way message latency in seconds.
	Latency float64
	// Bandwidth is the per-link bandwidth in bytes/second.
	Bandwidth float64
	// SendOverhead is the CPU time a sender spends injecting a message.
	SendOverhead float64
}

// DefaultNet is an SP-class switch: ~20 us latency, ~350 MB/s links.
func DefaultNet() NetConfig {
	return NetConfig{Latency: 20e-6, Bandwidth: 350e6, SendOverhead: 2e-6}
}

type message struct {
	src     int   // sender's rank within the communicator
	tag     int   // user tag, or the internal collective tag
	ctx     int64 // communicator/collective context
	data    []byte
	arrival float64 // virtual time the message is available at the receiver
}

// mailbox is one world rank's incoming message queue with tag matching,
// plus what the failure detector (ft.go) needs to know about its owner.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []message
	aborted bool

	// parked is true while the owner sleeps in recvCore after a scan of
	// queue found no match; wait then describes the receive. Whoever makes
	// the queue worth another scan clears it through World.wake.
	parked bool
	wait   ParkedRecv

	// dead is set by Comm.Die: the owner crashed and will never send again.
	dead atomic.Bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// World is one simulated MPI job: a fixed set of ranks, their mailboxes and
// the interconnect.
type World struct {
	size  int
	net   NetConfig
	boxes []*mailbox

	mu       sync.Mutex
	abortErr error
	commSeq  int64

	// ft is the failure detector's state (ft.go).
	ft ftState
}

// ErrAborted is returned by operations on a world where some rank called
// Abort or returned an error.
var ErrAborted = errors.New("mpi: world aborted")

// Proc is the per-rank execution context: its identity in the world and its
// virtual clock.
type Proc struct {
	world *World
	rank  int // world rank
	clock float64

	// stats is the rank's iostat collector; nil (the default) disables
	// collection at zero cost. Harnesses install it right after Run hands
	// out the world communicator, and every layer above reaches it through
	// the communicator.
	stats *iostat.Stats

	// spans is the rank's hierarchical span recorder (DESIGN.md §11); nil
	// (the default) keeps the instrumented pipeline allocation-free.
	spans *span.Recorder
}

// SetStats installs (or, with nil, removes) the rank's statistics
// collector.
func (p *Proc) SetStats(s *iostat.Stats) { p.stats = s }

// Stats returns the rank's statistics collector (nil when disabled).
func (p *Proc) Stats() *iostat.Stats { return p.stats }

// SetSpans installs (or, with nil, removes) the rank's span recorder.
func (p *Proc) SetSpans(r *span.Recorder) { p.spans = r }

// Spans returns the rank's span recorder (nil when disabled).
func (p *Proc) Spans() *span.Recorder { return p.spans }

// Clock returns the rank's current virtual time in seconds.
func (p *Proc) Clock() float64 { return p.clock }

// SetClock sets the rank's virtual time (harnesses reset it between measured
// phases).
func (p *Proc) SetClock(t float64) { p.clock = t }

// Advance adds dt seconds of local computation to the rank's clock.
func (p *Proc) Advance(dt float64) {
	if dt > 0 {
		p.clock += dt
	}
}

// WorldRank returns the rank's position in the world.
func (p *Proc) WorldRank() int { return p.rank }

// Comm is a communicator: an ordered group of ranks with a private message
// context, mirroring MPI_Comm. Each rank holds its own *Comm value.
type Comm struct {
	world *World
	proc  *Proc
	rank  int   // this process's rank within the communicator
	group []int // world ranks of the members, indexed by comm rank
	ctx   int64 // context base: commID << 32
	seq   int64 // per-rank collective sequence; in lockstep across members

	// Post-revocation state (ft.go): the highest revocation generation this
	// rank has observed (for once-per-generation detection accounting) and
	// the per-generation sequence of the reserved agreement context band.
	ftObserved int
	ftGen      int
	ftSeq      int64
}

// Run executes fn on n simulated ranks and blocks until all complete. Each
// rank receives the world communicator. The first non-nil error (or panic)
// aborts the world and is returned. A world never hangs on its own
// messaging: when every live rank is blocked in a receive, the failure
// detector (ft.go) either revokes the communicators that lost a member or
// aborts the world with *ErrDeadlock.
func Run(n int, net NetConfig, fn func(*Comm) error) error {
	if n < 1 {
		return fmt.Errorf("mpi: invalid world size %d", n)
	}
	w := &World{size: n, net: net, boxes: make([]*mailbox, n)}
	w.ft.running.Store(int32(n))
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	group := make([]int, n)
	for i := range group {
		group[i] = i
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer w.rankExited() // after the recover below: an abort comes first
			defer func() {
				if rec := recover(); rec != nil {
					if err, ok := rec.(error); ok && errors.Is(err, ErrAborted) {
						return // unwound by another rank's abort
					}
					if _, ok := rec.(rankKilled); ok {
						// Simulated crash (Comm.Die): this rank just stops.
						// Its peers revoke and fail over; the world's fate
						// is theirs to decide, not an abort.
						return
					}
					errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, rec)
					w.abort(errs[rank])
				}
			}()
			proc := &Proc{world: w, rank: rank}
			comm := &Comm{world: w, proc: proc, rank: rank, group: group}
			if err := fn(comm); err != nil {
				errs[rank] = err
				w.abort(err)
			}
		}(r)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.abortErr
}

func (w *World) abort(err error) {
	w.mu.Lock()
	if w.abortErr == nil {
		w.abortErr = err
	}
	w.mu.Unlock()
	for _, b := range w.boxes {
		b.mu.Lock()
		b.aborted = true
		w.wake(b)
		b.mu.Unlock()
	}
}

// Abort terminates the whole world with the given error, like MPI_Abort.
// It panics on the calling rank to unwind; Run reports err.
func (c *Comm) Abort(err error) {
	c.world.abort(err)
	panic(ErrAborted)
}

// Rank returns the calling process's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of processes in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// Proc exposes the per-rank context (virtual clock).
func (c *Comm) Proc() *Proc { return c.proc }

// Clock returns the rank's virtual time.
func (c *Comm) Clock() float64 { return c.proc.clock }

// transferTime is the virtual duration for nbytes over the interconnect.
func (w *World) transferTime(nbytes int) float64 {
	if w.net.Bandwidth <= 0 {
		return w.net.Latency
	}
	return w.net.Latency + float64(nbytes)/w.net.Bandwidth
}

// send delivers data from the calling rank to comm rank dst under context
// ctx. Sends are eager — the message is queued at the receiver and send
// returns, so no pattern of sends can deadlock — and the message carries
// data itself: the caller gives the slice up (package comment, "Buffer
// ownership").
func (c *Comm) send(dst, tag int, ctx int64, data []byte) {
	c.sendCore(dst, tag, ctx, data, false)
}

// sendCore implements send. In ftMode (post-revocation traffic) the
// revocation check is skipped — the caller IS the revocation handler.
// Either way a send to a dead rank is dropped: nobody will ever read it,
// and a crash between the peer's send and our delivery is exactly the
// reordering a real network exhibits.
func (c *Comm) sendCore(dst, tag int, ctx int64, data []byte, ftMode bool) {
	c.sendSized(dst, tag, ctx, data, len(data), ftMode)
}

// sendSized is sendCore for a message charged n bytes rather than
// len(data): the long-message Bcast hands every member the root's whole
// payload, which it already shares, and moves it piece by piece in virtual
// time.
func (c *Comm) sendSized(dst, tag int, ctx int64, data []byte, n int, ftMode bool) {
	if dst < 0 || dst >= len(c.group) {
		c.Abort(fmt.Errorf("mpi: send to invalid rank %d (size %d)", dst, len(c.group)))
	}
	if !ftMode {
		c.ftCheckRevoked(nil)
	}
	box := c.world.boxes[c.group[dst]]
	if box.dead.Load() {
		c.proc.clock += c.world.net.SendOverhead
		return
	}
	c.proc.stats.Add(iostat.MPIMsgsSent, 1)
	c.proc.stats.Add(iostat.MPIBytesSent, int64(n))
	arrival := c.proc.clock + c.world.transferTime(n)
	c.proc.clock += c.world.net.SendOverhead
	box.mu.Lock()
	box.queue = append(box.queue, message{src: c.rank, tag: tag, ctx: ctx, data: data, arrival: arrival})
	c.world.wake(box)
	box.mu.Unlock()
}

// recv blocks until a message matching (src, tag, ctx) is available and
// returns it, advancing the virtual clock to the arrival time. Wildcards
// (AnySource/AnyTag) apply to src and tag; ctx always matches exactly.
func (c *Comm) recv(src, tag int, ctx int64) message {
	return c.recvCore(src, tag, ctx, nil)
}

// recvCore implements recv. It is also where a rank observes a failure: a
// revoked communicator unwinds the receive with *ErrRevoked (unless pinned
// to that same revocation generation — the post-revocation agreement
// receives through here too). A receive that finds no match parks: it
// leaves its description in the mailbox for the detector, gives up its
// place in the world's running count, and sleeps until a sender, an abort
// or a revocation wakes it (World.wake). The rank whose parking brings the
// count to zero runs the detector itself (ft.go).
func (c *Comm) recvCore(src, tag int, ctx int64, pinned *revokeInfo) message {
	w := c.world
	box := w.boxes[c.group[c.rank]]
	box.mu.Lock()
	defer box.mu.Unlock()
	for {
		if box.aborted {
			panic(ErrAborted)
		}
		c.ftCheckRevoked(pinned)
		for i, m := range box.queue {
			if m.ctx != ctx {
				continue
			}
			if src != AnySource && m.src != src {
				continue
			}
			if tag != AnyTag && m.tag != tag {
				continue
			}
			box.queue = append(box.queue[:i], box.queue[i+1:]...)
			c.proc.clock = math.Max(c.proc.clock, m.arrival)
			return m
		}
		op, seq := ctxOp(ctx)
		box.wait = ParkedRecv{
			WorldRank: c.group[c.rank], Comm: c.ctx >> 32,
			Source: src, Tag: tag, Op: op, Seq: seq,
			group: c.group, clock: c.proc.clock,
		}
		if pinned != nil {
			box.wait.pinned = pinned.failed
		}
		box.parked = true
		if w.ft.running.Add(-1) == 0 {
			// The detector locks every mailbox in turn; it must not find
			// this one held.
			box.mu.Unlock()
			w.quiescent()
			box.mu.Lock()
		}
		for box.parked {
			box.cond.Wait()
		}
	}
}

// Send transmits data to rank dst with a user tag (>= 0). It transfers
// ownership: the receiver's Recv returns data's own backing array, so the
// caller must not modify or reuse data afterwards. A caller that needs its
// buffer back sends a copy.
func (c *Comm) Send(dst, tag int, data []byte) {
	if tag < 0 {
		c.Abort(fmt.Errorf("mpi: negative user tag %d", tag))
	}
	c.send(dst, tag, c.ctx, data)
}

// Recv blocks for a message from src (or AnySource) with the given tag (or
// AnyTag) and returns its payload and actual source rank. The payload is the
// slice the sender passed to Send, now owned by the caller.
func (c *Comm) Recv(src, tag int) ([]byte, int) {
	m := c.recv(src, tag, c.ctx)
	return m.data, m.src
}

// A collective's message context is commID<<32 | kind<<ctxKindSh | seq:
// the per-communicator sequence in bits 0-23 (modulo 2^24; members are never
// that far apart), the operation's kind in bits 24-29, and bit 30 clear (the
// post-revocation band sets it, ft.go). User point-to-point traffic has all
// 32 low bits zero.
const (
	ctxSeqMask  = 0xFFFFFF
	ctxKindSh   = 24
	ctxKindMask = 0x3F
)

// opKind is the collective operation a context belongs to. Because the kind
// is part of the context, members that disagree on which collective comes
// next never consume each other's messages: each parks in its own, and the
// detector's *ErrDeadlock names both operations.
type opKind int64

const (
	opBarrier opKind = iota + 1
	opBcast
	opGather
	opAlltoall
	opReduceI64
	opReduceF64
)

var opNames = [ctxKindMask + 1]string{
	opBarrier:   "Barrier",
	opBcast:     "Bcast",
	opGather:    "Gather",
	opAlltoall:  "Alltoall",
	opReduceI64: "ReduceI64",
	opReduceF64: "ReduceF64",
}

// ctxOp names the operation a message context belongs to and its sequence
// number: "" for user point-to-point traffic, "AgreeFT" in the
// post-revocation band.
func ctxOp(ctx int64) (string, int64) {
	if ctx&ftCtxBit != 0 {
		return "AgreeFT", ctx & ctxSeqMask
	}
	return opNames[ctx>>ctxKindSh&ctxKindMask], ctx & ctxSeqMask
}

// nextOpCtx reserves the message context for one collective operation of
// kind op. All ranks call collectives on a communicator in the same order (an
// MPI requirement), so the per-rank sequence counters stay in lockstep; a
// rank that breaks the order waits under a context no peer sends on.
func (c *Comm) nextOpCtx(op opKind) int64 {
	// A collective on a revoked communicator can never complete; fail it
	// before any message moves (recv would catch it anyway, but root-only
	// send patterns like Bcast's would first leak sends).
	c.ftCheckRevoked(nil)
	c.seq++
	c.proc.stats.Add(iostat.MPICollectives, 1)
	return c.ctx | int64(op)<<ctxKindSh | c.seq&ctxSeqMask
}

// Split partitions the communicator by color, ordering members of each new
// communicator by (key, old rank), like MPI_Comm_split. Collective.
func (c *Comm) Split(color, key int) *Comm {
	// Gather (color, key) from everyone; each rank then derives the same
	// partition deterministically from the shared view.
	mine := append(encodeInt64(int64(color)), encodeInt64(int64(key))...)
	all := c.Allgather(mine)
	type member struct{ color, key, rank int }
	members := make([]member, c.Size())
	for r := 0; r < c.Size(); r++ {
		b := all[r]
		members[r] = member{
			color: int(decodeInt64(b[:8])),
			key:   int(decodeInt64(b[8:16])),
			rank:  r,
		}
	}
	// Distinct colors in sorted order give every subgroup a stable index.
	colorSet := map[int]bool{}
	for _, m := range members {
		colorSet[m.color] = true
	}
	var colors []int
	for col := range colorSet {
		colors = append(colors, col)
	}
	for i := 1; i < len(colors); i++ { // insertion sort; few colors
		for j := i; j > 0 && colors[j-1] > colors[j]; j-- {
			colors[j-1], colors[j] = colors[j], colors[j-1]
		}
	}
	// Rank 0 allocates one contiguous block of communicator IDs for all
	// subgroups; everyone derives their subgroup's ID from the block base.
	var base int64
	if c.rank == 0 {
		c.world.mu.Lock()
		c.world.commSeq += int64(len(colors))
		base = c.world.commSeq - int64(len(colors)) + 1
		c.world.mu.Unlock()
	}
	base = decodeInt64(c.bcastOwned(0, encodeInt64(base)))
	colorIdx := 0
	for i, col := range colors {
		if col == color {
			colorIdx = i
		}
	}
	id := base + int64(colorIdx)

	var group []int
	for _, m := range members {
		if m.color == color {
			group = append(group, m.rank)
		}
	}
	// Order by (key, old rank).
	for i := 1; i < len(group); i++ {
		for j := i; j > 0; j-- {
			a, b := group[j-1], group[j]
			if members[a].key > members[b].key || (members[a].key == members[b].key && a > b) {
				group[j-1], group[j] = group[j], group[j-1]
			} else {
				break
			}
		}
	}
	myRank := -1
	worldGroup := make([]int, len(group))
	for i, r := range group {
		worldGroup[i] = c.group[r]
		if r == c.rank {
			myRank = i
		}
	}
	return &Comm{world: c.world, proc: c.proc, rank: myRank, group: worldGroup, ctx: id << 32}
}

func encodeInt64(v int64) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
	return b
}

func decodeInt64(b []byte) int64 {
	var v int64
	for i := 0; i < 8; i++ {
		v = v<<8 | int64(b[i])
	}
	return v
}
