package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"time"

	"pnetcdf/internal/mpi"
)

// The measuring loop: a closed loop with one client — the next operation
// starts when the previous one has returned and been checked. The simulated
// ranks are goroutines of the system under test.

const (
	warmupOps = 5 // discarded into setup_s: they fill buffer pools and grow the heap
	setupReps = 5 // setup_s is the median of this many complete set-ups
)

// opSample is one operation, timed from just before mpi.Run to its return.
// The CPU and allocation deltas are bracketed around the same interval, so
// the fixture and the output checks stay out of them.
type opSample struct {
	wall     time.Duration
	cpu      time.Duration
	bytes    uint64  // heap bytes allocated
	mallocs  uint64  // heap objects allocated
	makespan float64 // virtual seconds: the slowest rank's clock when it returns
	failed   bool
}

// runner drives one fixture.
type runner struct {
	d      driver
	clocks []float64
	rng    *rand.Rand // picks the oracle's spot cells
	first  *[sha256.Size]byte
	errs   []error // the first few failures, for the report
}

func newRunner(d driver, seed uint64) *runner {
	return &runner{d: d, clocks: make([]float64, d.ranks()), rng: rand.New(rand.NewPCG(seed, 0x73706f74))}
}

// exec runs one operation, unchecked. tel and ht are nil with tracing off.
func (r *runner) exec(tel *telemetry, ht *hostTrace) (opSample, error) {
	d := r.d
	d.begin(r.rng)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	err := mpi.Run(d.ranks(), d.net(), func(c *mpi.Comm) error {
		tel.attach(c)
		if err := d.rank(c, ht.rank(c.Rank())); err != nil {
			return err
		}
		r.clocks[c.Rank()] = c.Clock()
		return nil
	})
	s := opSample{wall: time.Since(start), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&m1)
	s.bytes, s.mallocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	for _, t := range r.clocks {
		s.makespan = math.Max(s.makespan, t)
	}
	return s, err
}

// op runs one operation and holds its output to the per-operation oracle. A
// failure on any rank or in the check marks the sample failed.
func (r *runner) op(tel *telemetry, ht *hostTrace) opSample {
	s, err := r.exec(tel, ht)
	if err == nil {
		err = r.d.check(r.rng)
	}
	if err != nil {
		s.failed = true
		if len(r.errs) < 3 {
			r.errs = append(r.errs, err)
		}
	}
	return s
}

// setUp builds a workload's fixture, pre-populates what it reads, and warms
// the process up. It returns the runner and how long the fixture alone took.
func setUp(w workload, sz sizes, seed uint64) (*runner, time.Duration, error) {
	start := time.Now()
	d, err := w.build(sz, seed)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: building the fixture: %w", w.name, err)
	}
	build := time.Since(start)
	r := newRunner(d, seed)
	for i := 0; i < warmupOps; i++ {
		if s := r.op(nil, nil); s.failed {
			return nil, 0, fmt.Errorf("%s: warm-up operation failed: %w", w.name, r.errs[0])
		}
	}
	return r, build, nil
}

// loop runs operations until both minOps have completed and the duration has
// passed. traced, when non-nil, runs in place of every second plain untraced
// operation, and minOps holds for either kind.
func (r *runner) loop(d time.Duration, minOps int, traced func() opSample) (plain, withTrace []opSample) {
	start := time.Now()
	for i := 0; len(plain) < minOps || (traced != nil && len(withTrace) < minOps) || time.Since(start) < d; i++ {
		if traced != nil && i%2 == 1 {
			withTrace = append(withTrace, traced())
			continue
		}
		plain = append(plain, r.op(nil, nil))
		if r.first == nil {
			// Serial equivalence across operations: the last image must
			// hash like the first.
			if sum, err := r.d.digest(); err == nil {
				r.first = &sum
			}
		}
	}
	return plain, withTrace
}

// finish is the teardown oracle: every cell against the fixture, and the
// last operation's image against the first's.
func (r *runner) finish() error {
	if err := r.d.verify(); err != nil {
		return fmt.Errorf("teardown: %w", err)
	}
	last, err := r.d.digest()
	if err != nil {
		return fmt.Errorf("teardown: %w", err)
	}
	if r.first == nil || last != *r.first {
		return fmt.Errorf("teardown: the last operation's image differs from the first's")
	}
	return nil
}

// simMBps is one operation's bandwidth in the paper's currency.
func simMBps(payload int64, makespan float64) float64 {
	if makespan <= 0 {
		return 0
	}
	return float64(payload) / makespan / 1e6
}

// quantile returns the q-quantile of xs by linear interpolation (xs is
// sorted in place); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// column extracts one field of every sample.
func column(samples []opSample, f func(opSample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

func wallMs(s opSample) float64 { return float64(s.wall) / 1e6 }

// perOp is a total over the samples divided by their number; failed
// operations stay in the denominator.
func perOp(samples []opSample, f func(opSample) float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range samples {
		sum += f(s)
	}
	return sum / float64(len(samples))
}

func countFailed(samples []opSample) int {
	n := 0
	for _, s := range samples {
		if s.failed {
			n++
		}
	}
	return n
}

// gcStats is the collector's work so far.
type gcStats struct {
	cycles uint32
	pause  time.Duration
}

func (g *gcStats) read() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	g.cycles, g.pause = m.NumGC, time.Duration(m.PauseTotalNs)
}
