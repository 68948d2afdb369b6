// Package fault is a deterministic, seedable fault-injection layer for the
// I/O stack. It decides — as a pure function of a seed and the operation's
// identity — whether a given read or write suffers a transient error, a
// latency spike, or an armed "crash point" that cuts the request (and
// optionally the file) at a chosen byte.
//
// One rule places a transient fault: an operation's payload is a run of
// FaultUnit-sized units, each failing independently at the configured rate,
// and the operation is cut at the first unit that fails — the units before
// it move, like a POSIX short count, and the caller resumes from the cut
// (pfs.File.request is the one place that does). A resumed remainder has a
// new offset and length, so it draws afresh.
//
// Determinism matters because the simulated ranks are goroutines whose
// interleaving varies run to run: a shared PRNG drawn in arrival order would
// make failures unreproducible. Instead every decision hashes
// (seed, rank, op, offset, length, occurrence), where occurrence counts how
// many times this rank has issued this exact operation. Each rank's program
// order is deterministic, so its fault schedule is too, independent of how
// the goroutines interleave.
package fault

import (
	"errors"
	"math"
	"sync"
)

// The errors the layer injects, and the one a request that stops
// resuming returns.
var (
	// errTransient marks an injected server error that a retry may clear
	// (the EIO-after-dropped-request class of PVFS/ROMIO deployments).
	errTransient = errors.New("fault: transient I/O error")
	// ErrCrashed marks an armed crash point firing: the request was cut at
	// the chosen byte and the process is presumed dead. Permanent.
	ErrCrashed = errors.New("fault: crash point reached")
	// ErrRetriesExhausted marks a request that pfs gave up resuming
	// because its attempts kept moving nothing; it is permanent.
	ErrRetriesExhausted = errors.New("fault: retries exhausted")
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

// Config tunes an Injector. Rates are probabilities in [0, 1] per FaultUnit
// of payload.
type Config struct {
	// Seed selects the deterministic fault schedule.
	Seed uint64
	// ReadErrRate / WriteErrRate are the transient-error probabilities.
	ReadErrRate  float64
	WriteErrRate float64
	// LatencyRate is the probability of a latency spike of LatencySpike
	// virtual seconds.
	LatencyRate  float64
	LatencySpike float64
	// FaultUnit is the payload size (bytes) that fails independently: an
	// n-byte operation is ceil(n/FaultUnit) units, so a multi-megabyte
	// collective write is as exposed as the same bytes moved in
	// server-request-sized pieces. 0 means 256 KiB.
	FaultUnit int64
}

// Injector makes fault decisions. The zero value injects nothing; a nil
// *Injector is a valid disabled injector (every method is a no-op), which
// keeps the faults-off hot path to one pointer test.
type Injector struct {
	cfg Config

	mu   sync.Mutex
	seen map[opKey]uint64 // occurrence counters
	// crashAt < 0 means no crash armed. When armed, the first read or
	// write overlapping file offset crashAt moves only the bytes before it
	// and returns ErrCrashed.
	crashAt       int64
	crashTruncate bool

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

// ArmCrash arms a one-shot crash point: the next read or write overlapping
// file offset atByte moves only the bytes before it and fails with
// ErrCrashed. With truncateFile, a write also cuts the file to atByte bytes,
// modeling a crash-plus-lost-tail instead of a torn in-place write; a read
// never truncates.
func (in *Injector) ArmCrash(atByte int64, truncateFile bool) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.crashAt = atByte
	in.crashTruncate = truncateFile
	in.mu.Unlock()
}

// KillRankAt arms a one-shot rank-kill at the occurrence-th (0-based)
// passage of rank through the named point: KillCheck then tells it to die
// (mpiio calls Comm.Die there). Use the Kill* point constants.
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
	return true
}

// outcome is one operation's fault decision.
type outcome struct {
	// Err is nil, errTransient or ErrCrashed.
	Err error
	// Delay is extra virtual latency to charge (seconds).
	Delay float64
	// N is the number of payload bytes that move: the full length when Err
	// is nil; for a transient error, the bytes of the units before the one
	// that failed — a multiple of FaultUnit below the length; for a crash,
	// the bytes up to the crash point.
	N int64
	// TruncateTo >= 0 orders the caller to cut the file to this size
	// (crash-with-truncation); -1 otherwise.
	TruncateTo int64
}

// Decide returns the fault outcome for one operation covering [off, off+n)
// issued by rank (use -1 outside an MPI context). A nil injector always
// returns the no-fault outcome.
func (in *Injector) Decide(rank int, op Op, off, n int64) outcome {
	out := outcome{N: n, TruncateTo: -1}
	if in == nil {
		return out
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	// An armed crash point takes priority over probabilistic faults.
	if in.crashAt >= 0 && off <= in.crashAt && in.crashAt < off+n {
		out.Err = ErrCrashed
		out.N = in.crashAt - off
		if in.crashTruncate && op == OpWrite {
			out.TruncateTo = in.crashAt
		}
		in.crashAt = -1
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
	u := in.cfg.FaultUnit
	if u <= 0 {
		u = 256 << 10
	}
	k := max((n+u-1)/u, 1)
	// Two independent draws from one hash: the first unit to fail, and the
	// first to suffer a spike.
	if firstHit(unit(hash64(draw, 2, 0, 0, 0, 0)), in.cfg.LatencyRate, k) < k {
		out.Delay = in.cfg.LatencySpike
	}
	if j := firstHit(unit(draw), errRate, k); j < k {
		out.Err = errTransient
		out.N = j * u
	}
	return out
}

// firstHit is one geometric draw from x, uniform in [0, 1): the index of the
// first of k units to be hit when each is hit independently with
// probability p, or k when none is. The chance that some unit is hit is
// 1-(1-p)^k.
func firstHit(x, p float64, k int64) int64 {
	if p <= 0 {
		return k
	}
	if p >= 1 {
		return 0
	}
	j := math.Log1p(-x) / math.Log1p(-p)
	if j >= float64(k) {
		return k
	}
	return int64(j)
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
