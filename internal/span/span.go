// Package span provides hierarchical, nestable timing spans for the
// collective I/O pipeline: every phase of a collective write — view resolve,
// offset exchange, each two-phase round (pack, agree, exchange, aggregator
// WriteVec), header commit — records a span carrying its rank, phase tag,
// round number, byte count, and start/end times from an injectable clock
// (the simulator's virtual clock in this repo).
//
// The design follows the repo's nil-safe observability convention
// (DESIGN.md §11): layers hold a *Recorder that is nil unless a harness
// enables tracing, every method no-ops on a nil receiver, and the disabled
// path performs zero allocations (pinned by TestSpanDisabledZeroAlloc).
// Begin returns an Active value handle (never a pointer), so instrumented
// code costs nothing beyond a nil check when spans are off.
//
// Spans gather to rank 0 (merge.go), feed per-round critical-path and
// load-imbalance analysis (critical.go), and export as Chrome trace-event
// JSON loadable in Perfetto (chrometrace.go).
package span

import "sync"

// Phase tags used by the instrumented pipeline. Free-form strings are
// allowed; these constants keep core/mpiio/mpitype/pfs and the nctrace
// analyses in agreement.
const (
	NCPut        = "nc_put"        // core: one put_var* call
	NCGet        = "nc_get"        // core: one get_var* call
	Encode       = "encode"        // core: external encode/decode of user data
	ViewResolve  = "view_resolve"  // core: subarray datatype build + SetView
	HeaderCommit = "header_commit" // core: crash-consistent header commit
	CollWrite    = "coll_write"    // mpiio: WriteAtAll
	CollRead     = "coll_read"     // mpiio: ReadAtAll
	IndepWrite   = "indep_write"   // mpiio: WriteAt
	IndepRead    = "indep_read"    // mpiio: ReadAt
	Flatten      = "flatten"       // mpitype: view range -> file segments
	Plan         = "plan"          // mpiio: offset exchange / file-domain plan
	Round        = "round"         // mpiio: one two-phase round
	Pack         = "pack"          // mpiio: intersect + encode contributions
	Agree        = "agree"         // mpiio: a round's count/verdict allreduce (a wait, not work)
	Exchange     = "exchange"      // mpiio: sparse rank<->aggregator exchange
	AggWrite     = "agg_write"     // mpiio: aggregator WriteVec round I/O
	AggRead      = "agg_read"      // mpiio: aggregator ReadV round I/O
	Drain        = "drain"         // mpiio: wait for earlier writes in flight to complete
	ReplyXchg    = "reply_xchg"    // mpiio: read-reply exchange
	Scatter      = "scatter"       // mpiio: scatter replies into user buffer
	PFSWrite     = "pfs_write"     // pfs: one WriteVec/WriteAt attempt
	PFSRead      = "pfs_read"      // pfs: one ReadVec/ReadAt attempt
	FTDetect     = "ft_detect"     // mpi: rank-failure detection (Round = generation)
	FTShrink     = "ft_shrink"     // mpi: survivor communicator built (Round = generation)
	FTFailover   = "ft_failover"   // mpiio: failover replay over the shrunken comm
)

// Span is one closed interval of work on one rank. IDs are unique per rank;
// (Rank, ID) is globally unique after a cross-rank merge. Parent is the ID
// of the enclosing span on the same rank, 0 for roots. Round is the
// two-phase round index, -1 when not applicable. Off is a file request's
// first byte offset (set on pfs_read/pfs_write leaves), -1 on every other
// span. Times are seconds on the recording rank's clock — comparable within
// a rank, not across ranks when clocks are skewed (the analyses in
// critical.go use durations only).
type Span struct {
	ID     int64
	Parent int64
	Rank   int
	Phase  string
	Round  int64
	Bytes  int64
	Off    int64
	Start  float64
	End    float64
}

// Dur returns the span's duration in seconds (never negative).
func (s Span) Dur() float64 {
	if s.End < s.Start {
		return 0
	}
	return s.End - s.Start
}

// openEnd marks a span whose End has not been recorded yet.
const openEnd = -1

// suppressedIdx marks an Active handle inside an overflowed subtree: End
// must unwind the suppression depth but records nothing.
const suppressedIdx = -2

// DefaultCap bounds a recorder's span buffer; further spans are counted in
// Dropped() rather than recorded, so a runaway trace degrades loudly instead
// of consuming unbounded memory.
const DefaultCap = 1 << 18

// Recorder collects spans for one rank. The zero value is not usable; use
// NewRecorder. A nil *Recorder is the disabled state: Begin/Record and the
// Active methods all no-op without allocating.
type Recorder struct {
	mu    sync.Mutex
	clock func() float64
	rank  int

	spans []Span
	stack []int32 // indices into spans of currently-open spans, root first
	next  int64   // next span ID

	cap     int
	dropped int64
	// suppress counts the nesting depth inside a subtree begun after the
	// buffer filled: its spans are dropped wholesale.
	suppress int
}

// NewRecorder returns a recorder for rank whose spans are timestamped by
// clock (the simulator's virtual clock; nil means a constant zero clock,
// useful in tests that only care about structure).
func NewRecorder(rank int, clock func() float64) *Recorder {
	if clock == nil {
		clock = func() float64 { return 0 }
	}
	return &Recorder{clock: clock, rank: rank, cap: DefaultCap, next: 1}
}

// SetCap bounds the number of recorded spans (minimum 1); spans beyond the
// cap are dropped and counted.
func (r *Recorder) SetCap(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n < 1 {
		n = 1
	}
	r.cap = n
}

// Active is a handle to a span opened by Begin. The zero value (and any
// handle from a nil Recorder) is inert: all methods no-op. Copying is fine;
// End is idempotent.
type Active struct {
	r   *Recorder
	idx int32
}

// Begin opens a span tagged phase, nested under the innermost open span.
// Returns an inert handle when the recorder is nil or the buffer is full.
func (r *Recorder) Begin(phase string) Active {
	if r == nil {
		return Active{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.suppress > 0 {
		r.suppress++
		return Active{r: r, idx: suppressedIdx}
	}
	if len(r.spans) >= r.cap {
		r.dropped++
		r.suppress = 1
		return Active{r: r, idx: suppressedIdx}
	}
	var parent int64
	if n := len(r.stack); n > 0 {
		parent = r.spans[r.stack[n-1]].ID
	}
	id := r.next
	r.next++
	idx := int32(len(r.spans))
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent, Rank: r.rank, Phase: phase,
		Round: -1, Off: -1, Start: r.clock(), End: openEnd,
	})
	r.stack = append(r.stack, idx)
	return Active{r: r, idx: idx}
}

// End closes the span at the recorder's current clock. Any descendants
// still open are closed at the same instant, so a function-level
// `defer sp.End()` guarantees no dangling spans on error paths. End is
// idempotent: closing an already-closed span is a no-op.
func (a Active) End() {
	if a.r == nil {
		return
	}
	r := a.r
	r.mu.Lock()
	defer r.mu.Unlock()
	if a.idx == suppressedIdx {
		if r.suppress > 0 {
			r.suppress--
		}
		return
	}
	for i := len(r.stack) - 1; i >= 0; i-- {
		if r.stack[i] != a.idx {
			continue
		}
		now := r.clock()
		for j := len(r.stack) - 1; j >= i; j-- {
			s := &r.spans[r.stack[j]]
			s.End = now
			if s.End < s.Start {
				s.End = s.Start
			}
		}
		r.stack = r.stack[:i]
		return
	}
}

// SetRound tags the span with a two-phase round index.
func (a Active) SetRound(round int) {
	if a.r == nil || a.idx < 0 {
		return
	}
	a.r.mu.Lock()
	a.r.spans[a.idx].Round = int64(round)
	a.r.mu.Unlock()
}

// SetBytes sets the span's byte (or unit) count.
func (a Active) SetBytes(n int64) {
	if a.r == nil || a.idx < 0 {
		return
	}
	a.r.mu.Lock()
	a.r.spans[a.idx].Bytes = n
	a.r.mu.Unlock()
}

// AddBytes accumulates into the span's byte count.
func (a Active) AddBytes(n int64) {
	if a.r == nil || a.idx < 0 {
		return
	}
	a.r.mu.Lock()
	a.r.spans[a.idx].Bytes += n
	a.r.mu.Unlock()
}

// Record appends an already-closed leaf span with explicit times, nested
// under the innermost open span. The pfs layer uses it: each I/O attempt
// knows its own start and completion times and first file offset (off; -1
// for a span that is not a file request), and failed attempts that a retry
// repeats show up as separate spans.
func (r *Recorder) Record(phase string, round int, start, end float64, bytes, off int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.suppress > 0 {
		return
	}
	if len(r.spans) >= r.cap {
		r.dropped++
		return
	}
	var parent int64
	if n := len(r.stack); n > 0 {
		parent = r.spans[r.stack[n-1]].ID
	}
	if end < start {
		end = start
	}
	id := r.next
	r.next++
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent, Rank: r.rank, Phase: phase,
		Round: int64(round), Bytes: bytes, Off: off, Start: start, End: end,
	})
}

// Open returns the number of spans begun but not yet ended — zero after a
// well-behaved run, even one that took error paths (see the fault tests).
func (r *Recorder) Open() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.stack)
}

// Len returns the number of recorded spans.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Dropped returns how many spans were discarded because the buffer was
// full. A nonzero value means the trace is incomplete and must be surfaced
// loudly, never read as a full record.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Spans returns a copy of the recorded spans in begin order. Spans still
// open are reported with End clamped to their Start (they remain open in
// the recorder).
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	for i := range out {
		if out[i].End < out[i].Start {
			out[i].End = out[i].Start
		}
	}
	return out
}

// Reset discards all recorded spans and drop counts, keeping configuration.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = r.spans[:0]
	r.stack = r.stack[:0]
	r.next = 1
	r.dropped = 0
	r.suppress = 0
}
