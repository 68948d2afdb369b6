package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// TestAllocsReductionsWarm: a warm reduction allocates nothing. Partials
// fold straight from the wire into the caller's vector and travel in pooled
// buffers that their receivers put back, so 1 000 calls of each reduction
// the collective I/O path uses — AllreduceI64 over a P-slot vector like the
// exchange's counts, AllreduceF64, AgreeError, a healthy AgreeFT — add
// fewer than 0.05 objects per call per rank on a warm 8-rank world.
func TestAllocsReductionsWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers under the race detector; the pins do not hold")
	}
	const ranks, calls = 8, 1000
	for _, tc := range []struct {
		name string
		call func(c *Comm, iv []int64, fv []float64)
	}{
		{"AllreduceI64", func(c *Comm, iv []int64, _ []float64) { c.AllreduceI64(iv, OpSum) }},
		{"AllreduceF64", func(c *Comm, _ []int64, fv []float64) { c.AllreduceF64(fv, OpMax) }},
		{"AgreeError", func(c *Comm, _ []int64, _ []float64) { c.AgreeError(nil) }},
		{"AgreeFT", func(c *Comm, iv []int64, _ []float64) { c.AgreeFT(iv, OpMin) }},
	} {
		var objs uint64
		runOrFatal(t, ranks, func(c *Comm) error {
			iv, fv := make([]int64, ranks), make([]float64, ranks)
			for range 10 { // warm the pool
				tc.call(c, iv, fv)
			}
			var before, after runtime.MemStats
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			c.Barrier()
			for range calls {
				tc.call(c, iv, fv)
			}
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&after)
				objs = after.Mallocs - before.Mallocs
			}
			return nil
		})
		per := float64(objs) / (calls * ranks)
		t.Logf("%s: %d objects over %d calls on %d ranks, %.4f per call per rank", tc.name, objs, calls, ranks, per)
		if per >= 0.05 {
			t.Errorf("%s allocates %.4f objects per call per rank, want < 0.05", tc.name, per)
		}
	}
}

// TestAsRevokedNilAllocatesNothing: the collective I/O paths ask AsRevoked
// about every collective's error, nearly always nil, and that question is
// free; a wrapped *ErrRevoked is still found.
func TestAsRevokedNilAllocatesNothing(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() { AsRevoked(nil) }); got != 0 {
		t.Errorf("AsRevoked(nil) allocates %v objects, want 0", got)
	}
	want := &ErrRevoked{Failed: []int{3}, Gen: 2}
	if rv, ok := AsRevoked(fmt.Errorf("write round 4: %w", want)); !ok || rv != want {
		t.Errorf("AsRevoked(wrapped) = %v, %v; want %v, true", rv, ok, want)
	}
	if rv, ok := AsRevoked(errors.New("not a revocation")); ok || rv != nil {
		t.Errorf("AsRevoked(other) = %v, %v; want nil, false", rv, ok)
	}
}
