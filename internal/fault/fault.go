// Package fault is a deterministic, seedable fault-injection layer for the
// I/O stack. It decides — as a pure function of a seed and the operation's
// identity — whether a given read or write suffers a transient error, a
// short transfer, a latency spike, or an armed "crash point" that cuts a
// write (and optionally the file) at a chosen byte.
//
// Determinism matters because the simulated ranks are goroutines whose
// interleaving varies run to run: a shared PRNG drawn in arrival order would
// make failures unreproducible. Instead every decision hashes
// (seed, rank, op, offset, length, occurrence), where occurrence counts how
// many times this rank has issued this exact operation. Each rank's program
// order is deterministic, so its fault schedule is too, independent of how
// the goroutines interleave — and a retry of the same operation is a new
// occurrence, so retries eventually succeed.
//
// The package also carries the stack's error taxonomy (transient vs
// permanent, see Classify) and the bounded-exponential-backoff retry policy
// the pfs serial adapter and the MPI-IO layer share.
package fault

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Errors injected by the layer and produced by the retry machinery.
var (
	// ErrTransient marks an injected server error that a retry may clear
	// (the EIO-after-dropped-request class of PVFS/ROMIO deployments).
	ErrTransient = errors.New("fault: transient I/O error")
	// ErrCrashed marks an armed crash point firing: the write was cut at
	// the chosen byte and the process is presumed dead. Permanent.
	ErrCrashed = errors.New("fault: crash point reached")
	// ErrRetriesExhausted wraps the last transient error once a retry
	// policy gives up; it is permanent (callers must not keep retrying).
	ErrRetriesExhausted = errors.New("fault: retries exhausted")
	// ErrKilled is the reason a rank-kill (KillRank) passes to mpi's
	// Comm.Die: the rank crashed outright mid-operation.
	ErrKilled = errors.New("fault: rank killed at crash point")
)

// Named rank-kill points inside the two-phase collective path (mpiio
// consults KillCheck at each). They bracket the interesting windows of a
// round: before any state is packed, after the rank's sends are out but
// before its receives complete, and — on an aggregator with something to
// move — after its I/O request is issued but before the round is agreed: the
// request's bytes have then landed, and its virtual end may not yet be on
// the rank clock.
const (
	KillBeforePack  = "before_pack"
	KillMidExchange = "mid_exchange"
	KillAfterIssue  = "after_issue"
)

// IsTransient reports whether err may clear on retry. Exhausted retries are
// permanent even though the underlying cause was transient.
func IsTransient(err error) bool {
	return errors.Is(err, ErrTransient) && !errors.Is(err, ErrRetriesExhausted)
}

// Op identifies the faultable operation class.
type Op int

// Operation classes.
const (
	OpRead Op = iota
	OpWrite
)

func (o Op) String() string {
	if o == OpRead {
		return "read"
	}
	return "write"
}

// Config tunes an Injector. Rates are probabilities in [0, 1] evaluated
// independently per operation.
type Config struct {
	// Seed selects the deterministic fault schedule.
	Seed uint64
	// ReadErrRate / WriteErrRate are the transient-error probabilities.
	ReadErrRate  float64
	WriteErrRate float64
	// ShortRate is the probability that a transfer moves only part of its
	// payload (a short read or write with nil error, as buggy call sites
	// would see from a real file system).
	ShortRate float64
	// LatencyRate is the probability of a per-server latency spike of
	// LatencySpike virtual seconds.
	LatencyRate  float64
	LatencySpike float64
	// FaultUnit is the transfer size (bytes) that makes one independent
	// fault draw; an n-byte operation draws ceil(n/FaultUnit) times, so a
	// multi-megabyte collective write is as exposed as the same bytes
	// moved in server-request-sized pieces. 0 means 256 KiB.
	FaultUnit int64
}

// Injector makes fault decisions. The zero value injects nothing; a nil
// *Injector is a valid disabled injector (every method is a no-op), which
// keeps the faults-off hot path to one pointer test.
type Injector struct {
	cfg Config

	mu   sync.Mutex
	seen map[opKey]uint64 // occurrence counters
	// crashAt < 0 means no crash armed. When armed, the first write
	// overlapping file offset crashAt keeps only bytes before it and
	// returns ErrCrashed.
	crashAt       int64
	crashTruncate bool
	injected      int64

	// kill is the armed rank-kill, nil when none. killSeen counts, per
	// (rank, point), how many times that rank has passed that kill point —
	// program order per rank, so the schedule is deterministic regardless
	// of goroutine interleaving, exactly like the transient-fault draws.
	kill     *killSpec
	killSeen map[killKey]int64
}

// killSpec is one armed rank-kill: terminate rank the occurrence-th time
// (0-based) it passes the named point.
type killSpec struct {
	rank       int
	point      string
	occurrence int64
}

type killKey struct {
	rank  int
	point string
}

type opKey struct {
	rank int
	op   Op
	off  int64
	n    int64
}

// New returns an injector for the given configuration.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, seen: map[opKey]uint64{}, crashAt: -1}
}

// Injected returns how many faults (errors, shorts, spikes, crashes) the
// injector has delivered.
func (in *Injector) Injected() int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected
}

// ArmCrash arms a one-shot crash point: the next write overlapping file
// offset atByte keeps only the bytes before it and fails with ErrCrashed.
// With truncateFile, the file is also cut to atByte bytes, modeling a
// crash-plus-lost-tail instead of a torn in-place write.
func (in *Injector) ArmCrash(atByte int64, truncateFile bool) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.crashAt = atByte
	in.crashTruncate = truncateFile
	in.mu.Unlock()
}

// KillRank arms a one-shot rank-kill: the next time rank passes the named
// kill point, KillCheck tells it to die (mpiio calls Comm.Die there). Use
// the Kill* point constants.
func (in *Injector) KillRank(rank int, point string) {
	in.KillRankAt(rank, point, 0)
}

// KillRankAt arms a rank-kill at the occurrence-th (0-based) passage of
// rank through the named point, for killing mid-run rather than at the
// first round.
func (in *Injector) KillRankAt(rank int, point string, occurrence int64) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.kill = &killSpec{rank: rank, point: point, occurrence: occurrence}
	if in.killSeen == nil {
		in.killSeen = map[killKey]int64{}
	}
	in.mu.Unlock()
}

// KillCheck reports whether the calling rank must die here, counting this
// passage of rank through point either way. One-shot: the armed kill is
// consumed when it fires.
func (in *Injector) KillCheck(rank int, point string) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.kill == nil {
		return false
	}
	if in.kill.rank != rank || in.kill.point != point {
		// Count only points some armed kill could name: unarmed traffic
		// must not perturb occurrence numbering across configurations.
		return false
	}
	key := killKey{rank: rank, point: point}
	occ := in.killSeen[key]
	in.killSeen[key] = occ + 1
	if occ != in.kill.occurrence {
		return false
	}
	in.kill = nil
	in.injected++
	return true
}

// CrashArmed reports whether a crash point is pending.
func (in *Injector) CrashArmed() bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashAt >= 0
}

// Outcome is one operation's fault decision.
type Outcome struct {
	// Err is nil, ErrTransient or ErrCrashed.
	Err error
	// Delay is extra virtual latency to charge (seconds).
	Delay float64
	// N is the number of payload bytes that land/return despite the fault:
	// the full length when Err is nil and no short transfer was injected,
	// a strict prefix otherwise. For a crash, N is the byte count up to
	// the crash point within this operation's range.
	N int64
	// TruncateTo >= 0 orders the caller to cut the file to this size
	// (crash-with-truncation); -1 otherwise.
	TruncateTo int64
}

// Decide returns the fault outcome for one operation covering [off, off+n)
// issued by rank (use -1 outside an MPI context). A nil injector always
// returns the no-fault outcome.
func (in *Injector) Decide(rank int, op Op, off, n int64) Outcome {
	out := Outcome{N: n, TruncateTo: -1}
	if in == nil {
		return out
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	// An armed crash point takes priority over probabilistic faults.
	if in.crashAt >= 0 && op == OpWrite && off <= in.crashAt && in.crashAt < off+n {
		out.Err = ErrCrashed
		out.N = in.crashAt - off
		if in.crashTruncate {
			out.TruncateTo = in.crashAt
		}
		in.crashAt = -1
		in.injected++
		return out
	}
	key := opKey{rank: rank, op: op, off: off, n: n}
	occ := in.seen[key]
	in.seen[key] = occ + 1
	draw := hash64(in.cfg.Seed, uint64(rank)+1, uint64(op), uint64(off), uint64(n), occ)
	errRate := in.cfg.ReadErrRate
	if op == OpWrite {
		errRate = in.cfg.WriteErrRate
	}
	// Rates are per FaultUnit of payload: an operation moving k units is
	// k independent exposures, so its effective rate is 1-(1-p)^k. This
	// keeps the fault count proportional to bytes moved whether the stack
	// issues many small requests or one huge vectored one.
	k := in.drawUnits(n)
	errRate = compoundRate(errRate, k)
	// Three independent sub-draws from one hash, each uniform in [0, 1).
	pErr := unit(draw)
	pShort := unit(hash64(draw, 1, 0, 0, 0, 0))
	pLat := unit(hash64(draw, 2, 0, 0, 0, 0))
	if pLat < compoundRate(in.cfg.LatencyRate, k) {
		out.Delay = in.cfg.LatencySpike
		in.injected++
	}
	if pErr < errRate {
		out.Err = ErrTransient
		// Part of the payload may have moved before the request died.
		out.N = int64(unit(hash64(draw, 3, 0, 0, 0, 0)) * float64(n))
		in.injected++
		return out
	}
	if pShort < compoundRate(in.cfg.ShortRate, k) && n > 1 {
		// Short transfer: at least one byte of progress, never the full n.
		out.N = 1 + int64(unit(hash64(draw, 4, 0, 0, 0, 0))*float64(n-1))
		in.injected++
	}
	return out
}

// drawUnits returns how many FaultUnit-sized exposures an n-byte transfer
// makes (at least one).
func (in *Injector) drawUnits(n int64) int64 {
	u := in.cfg.FaultUnit
	if u <= 0 {
		u = 256 << 10
	}
	k := (n + u - 1) / u
	if k < 1 {
		k = 1
	}
	return k
}

// compoundRate is the probability that at least one of k independent
// exposures at rate p fires.
func compoundRate(p float64, k int64) float64 {
	if k <= 1 || p <= 0 || p >= 1 {
		return p
	}
	return 1 - math.Pow(1-p, float64(k))
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / float64(1<<53) }

// hash64 mixes the inputs with a splitmix64-style finalizer.
func hash64(vals ...uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range vals {
		h ^= v + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 27
		h *= 0x94D049BB133111EB
		h ^= h >> 31
	}
	return h
}

// RetryPolicy is the bounded-exponential-backoff schedule for transient
// errors: attempt, wait Base, 2*Base, 4*Base ... capped at Max, give up
// after MaxRetries retries. Waits are virtual time, charged to the caller's
// clock.
type RetryPolicy struct {
	MaxRetries int
	Base       float64 // seconds
	Max        float64 // seconds
}

// DefaultRetryPolicy mirrors ROMIO-era deployment practice: a handful of
// quick retries, backing off to tens of milliseconds.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 8, Base: 1e-3, Max: 50e-3}
}

// Backoff returns the wait before retry attempt i (0-based).
func (p RetryPolicy) Backoff(i int) float64 {
	d := p.Base
	for ; i > 0 && d < p.Max; i-- {
		d *= 2
	}
	if d > p.Max {
		d = p.Max
	}
	return d
}

// Do runs op, retrying transient errors under the policy. op receives the
// virtual start time of the attempt and returns the completion time and
// error. Do returns the final completion time, the number of retries
// performed, the total backoff charged, and the final error: nil on
// success, the original error if permanent, or ErrRetriesExhausted wrapping
// the last transient error once the budget is spent.
func (p RetryPolicy) Do(t float64, op func(t float64) (float64, error)) (done float64, retries int, backoff float64, err error) {
	done = t
	for attempt := 0; ; attempt++ {
		done, err = op(done)
		if err == nil || !IsTransient(err) {
			return done, retries, backoff, err
		}
		if attempt >= p.MaxRetries {
			return done, retries, backoff, fmt.Errorf("%w after %d retries: %v", ErrRetriesExhausted, retries, err)
		}
		wait := p.Backoff(attempt)
		done += wait
		backoff += wait
		retries++
	}
}
