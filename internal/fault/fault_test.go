package fault

import (
	"errors"
	"math"
	"testing"
)

func TestNilInjectorIsDisabled(t *testing.T) {
	var in *Injector
	out := in.Decide(3, OpWrite, 100, 50)
	if out.Err != nil || out.N != 50 || out.Delay != 0 || out.TruncateTo != -1 {
		t.Fatalf("nil injector injected: %+v", out)
	}
	in.ArmCrash(10, true)
	if out := in.Decide(3, OpWrite, 0, 50); out.Err != nil || out.N != 50 || out.TruncateTo != -1 {
		t.Fatalf("nil injector armed a crash: %+v", out)
	}
}

// Two injectors with the same seed must produce byte-identical fault
// schedules; a different seed must diverge somewhere.
func TestScheduleIsDeterministicInSeed(t *testing.T) {
	run := func(seed uint64) []outcome {
		in := New(Config{Seed: seed, ReadErrRate: 0.2, WriteErrRate: 0.2, LatencyRate: 0.1, LatencySpike: 1e-3, FaultUnit: 64})
		var outs []outcome
		for rank := 0; rank < 4; rank++ {
			for i := int64(0); i < 64; i++ {
				outs = append(outs, in.Decide(rank, OpRead, i*512, 512))
				outs = append(outs, in.Decide(rank, OpWrite, i*512, 512))
			}
		}
		return outs
	}
	a, b, c := run(7), run(7), run(8)
	same := func(x, y []outcome) bool {
		for i := range x {
			if !errors.Is(x[i].Err, y[i].Err) || x[i].N != y[i].N || x[i].Delay != y[i].Delay {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if same(a, c) {
		t.Fatal("different seeds produced identical schedules (hash not mixing?)")
	}
}

// A retry of the identical operation is a new occurrence and must get an
// independent draw — so under a partial fault rate, retries clear.
func TestOccurrenceAdvancesOnRetry(t *testing.T) {
	in := New(Config{Seed: 1, WriteErrRate: 0.5})
	failedOnce, clearedOnRetry := false, false
	for i := int64(0); i < 200 && !clearedOnRetry; i++ {
		if in.Decide(0, OpWrite, i*64, 64).Err == nil {
			continue
		}
		failedOnce = true
		for r := 0; r < 20; r++ {
			if in.Decide(0, OpWrite, i*64, 64).Err == nil {
				clearedOnRetry = true
				break
			}
		}
	}
	if !failedOnce || !clearedOnRetry {
		t.Fatalf("failedOnce=%v clearedOnRetry=%v — occurrence counter not advancing", failedOnce, clearedOnRetry)
	}
}

func TestCrashPointIsOneShot(t *testing.T) {
	in := New(Config{Seed: 1})
	in.ArmCrash(100, true)
	// A write strictly before the crash byte is untouched.
	if out := in.Decide(0, OpWrite, 0, 100); out.Err != nil {
		t.Fatalf("write below crash point failed: %v", out.Err)
	}
	out := in.Decide(0, OpWrite, 80, 64)
	if !errors.Is(out.Err, ErrCrashed) {
		t.Fatalf("overlapping write: %v", out.Err)
	}
	if out.N != 20 {
		t.Fatalf("crash kept %d bytes, want 20 (up to byte 100 from offset 80)", out.N)
	}
	if out.TruncateTo != 100 {
		t.Fatalf("TruncateTo = %d, want 100", out.TruncateTo)
	}
	if out := in.Decide(0, OpWrite, 80, 64); out.Err != nil {
		t.Fatalf("crash fired twice: %v", out.Err)
	}
	// A read through an armed crash point fails the same way, and never
	// truncates.
	in.ArmCrash(300, true)
	out = in.Decide(0, OpRead, 256, 64)
	if !errors.Is(out.Err, ErrCrashed) || out.N != 44 || out.TruncateTo != -1 {
		t.Fatalf("read through crash point: %+v, want ErrCrashed, N 44, no truncation", out)
	}
}

// TestCutIsWholeUnitsBelowN: a transient fault cuts an operation at the
// start of the unit that failed — a multiple of FaultUnit strictly below the
// operation's length — whatever the length, including lengths that end in a
// partial unit.
func TestCutIsWholeUnitsBelowN(t *testing.T) {
	const unit = 100
	in := New(Config{Seed: 3, ReadErrRate: 0.3, WriteErrRate: 0.3, FaultUnit: unit})
	cuts := map[int64]bool{}
	for i := int64(0); i < 2000; i++ {
		n := 1 + i%1000
		op := Op(i % 2)
		out := in.Decide(1, op, i*4096, n)
		if out.Err == nil {
			if out.N != n {
				t.Fatalf("clean %v of %d bytes moves %d", op, n, out.N)
			}
			continue
		}
		if !errors.Is(out.Err, errTransient) {
			t.Fatalf("%v: unexpected error %v", op, out.Err)
		}
		if out.N%unit != 0 || out.N < 0 || out.N >= n {
			t.Fatalf("%v of %d bytes cut at %d: want a multiple of %d below %d", op, n, out.N, unit, n)
		}
		cuts[out.N] = true
	}
	if !cuts[0] || len(cuts) < 5 {
		t.Fatalf("cuts seen %v: want the first unit and several later ones", cuts)
	}
}

// TestCleanFractionIsPerUnit: the chance a k-unit operation goes through
// untouched is (1-p)^k — each unit fails independently at rate p — for
// errors and latency spikes alike. Over 20 000 draws per k the binomial
// standard error is at most 0.0036, so a tolerance of 0.015 is over four of
// them.
func TestCleanFractionIsPerUnit(t *testing.T) {
	const p, draws, unit, tol = 0.05, 20000, 64, 0.015
	for _, k := range []int64{1, 4, 16, 40} {
		in := New(Config{Seed: uint64(k), WriteErrRate: p, LatencyRate: p, LatencySpike: 1e-3, FaultUnit: unit})
		var clean, unspiked int
		for i := int64(0); i < draws; i++ {
			out := in.Decide(0, OpWrite, i*unit*k, unit*k)
			if out.Err == nil {
				clean++
			}
			if out.Delay == 0 {
				unspiked++
			}
		}
		want := math.Pow(1-p, float64(k))
		for name, got := range map[string]float64{"error-free": float64(clean) / draws, "spike-free": float64(unspiked) / draws} {
			if math.Abs(got-want) > tol {
				t.Errorf("k=%d: %s fraction %.4f, want (1-p)^k = %.4f ± %g", k, name, got, want, tol)
			}
		}
	}
}

// TestKillCheckFiresAtOccurrence: the armed (rank, point, occurrence)
// fires exactly once, at exactly that passage, and only for the armed
// rank and point.
func TestKillCheckFiresAtOccurrence(t *testing.T) {
	in := New(Config{Seed: 1})
	in.KillRankAt(2, KillMidExchange, 3)
	for occ := 0; occ < 3; occ++ {
		if in.KillCheck(2, KillMidExchange) {
			t.Fatalf("fired at occurrence %d, armed for 3", occ)
		}
	}
	// Other ranks and points never fire and never perturb the count.
	if in.KillCheck(1, KillMidExchange) || in.KillCheck(2, KillBeforePack) || in.KillCheck(2, KillAfterIssue) {
		t.Fatal("unarmed rank/point fired")
	}
	if !in.KillCheck(2, KillMidExchange) {
		t.Fatal("did not fire at armed occurrence")
	}
}

// TestKillCheckOneShot: after firing, the injector is disarmed — further
// passages, even matching ones, survive.
func TestKillCheckOneShot(t *testing.T) {
	in := New(Config{Seed: 1})
	in.KillRankAt(0, KillBeforePack, 0)
	if !in.KillCheck(0, KillBeforePack) {
		t.Fatal("armed kill did not fire at occurrence 0")
	}
	for i := 0; i < 5; i++ {
		if in.KillCheck(0, KillBeforePack) {
			t.Fatal("kill fired twice")
		}
	}
}

// TestKillCheckUnarmedCountsNothing: traffic through kill points while
// nothing is armed must not advance occurrence numbering, so a later
// KillRankAt(r, p, 0) still fires at its first post-arm passage. This is
// what keeps occurrence numbers meaningful across configurations (e.g. the
// H5 comparison run sharing a binary with the PnetCDF run).
func TestKillCheckUnarmedCountsNothing(t *testing.T) {
	in := New(Config{Seed: 1})
	for i := 0; i < 4; i++ {
		if in.KillCheck(1, KillMidExchange) {
			t.Fatal("unarmed injector fired")
		}
	}
	in.KillRankAt(1, KillMidExchange, 0)
	if !in.KillCheck(1, KillMidExchange) {
		t.Fatal("kill did not fire at first post-arm passage")
	}
}

// TestKillCheckNilSafe: the nil injector neither fires nor panics.
func TestKillCheckNilSafe(t *testing.T) {
	var in *Injector
	in.KillRankAt(0, KillBeforePack, 2)
	if in.KillCheck(0, KillBeforePack) {
		t.Fatal("nil injector fired")
	}
}
