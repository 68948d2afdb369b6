package netcdf

import (
	"runtime"
	"runtime/debug"
	"testing"

	"pnetcdf/internal/nctype"
)

// Allocation regression tests for the contiguous read/write fast path: data
// packs and unpacks through pooled external buffers, so steady state is a
// small constant number of allocations (the request's shape and segment
// lists, and the loop's own boxing of the buffer) and under a hundred bytes,
// NOT proportional to the payload. The byte pins are what catch a
// reintroduced per-call buffer or gathered intermediate: one 256 KiB make is
// a single allocation but blows the byte budget immediately. Measured: 5
// objects and 72 B per put or get; the pins allow a quarter more.

const allocVarElems = 64 << 10

func newAllocDataset(t *testing.T) (*Dataset, int) {
	t.Helper()
	store := &MemStore{}
	d, err := Create(store, nctype.Clobber)
	if err != nil {
		t.Fatal(err)
	}
	dimID, err := d.DefDim("x", allocVarElems)
	if err != nil {
		t.Fatal(err)
	}
	varID, err := d.DefVar("v", nctype.Float, []int{dimID})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.EndDef(); err != nil {
		t.Fatal(err)
	}
	return d, varID
}

// perCall returns the objects and bytes one call of op allocates: the mean
// over 320 calls on one processor with the collector paused. A collection
// empties the pool's per-processor caches, and a goroutine that moves to
// another processor misses the buffer it put back; either would charge a
// call a new 256 KiB buffer, as the host's load decides. The first call
// after the switch to one processor refills its cache and is not counted.
func perCall(t *testing.T, op func() error) (objs, bytes uint64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const calls = 320
	var before, after runtime.MemStats
	for i := -1; i < calls; i++ {
		if i == 0 {
			runtime.ReadMemStats(&before)
		}
		if err := op(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / calls, (after.TotalAlloc - before.TotalAlloc) / calls
}

func checkContigPins(t *testing.T, what string, objs, bytes uint64) {
	t.Logf("contig %s: %d allocs/op, %d B/op", what, objs, bytes)
	if objs > 6 {
		t.Errorf("contiguous %s allocates %d/op, want <= 6", what, objs)
	}
	if bytes > 90 {
		t.Errorf("contiguous %s allocates %d B/op, want <= 90 (payload is %d B)", what, bytes, allocVarElems*4)
	}
}

func TestAllocsContigPut(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; byte pins do not hold")
	}
	d, varID := newAllocDataset(t)
	buf := make([]float32, allocVarElems)
	for i := range buf {
		buf[i] = float32(i)
	}
	if err := d.PutVar(varID, buf); err != nil { // warm pool and view cache
		t.Fatal(err)
	}
	objs, bytes := perCall(t, func() error { return d.PutVar(varID, buf) })
	checkContigPins(t, "put", objs, bytes)
}

func TestAllocsContigGet(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; byte pins do not hold")
	}
	d, varID := newAllocDataset(t)
	buf := make([]float32, allocVarElems)
	if err := d.PutVar(varID, buf); err != nil {
		t.Fatal(err)
	}
	if err := d.GetVar(varID, buf); err != nil {
		t.Fatal(err)
	}
	objs, bytes := perCall(t, func() error { return d.GetVar(varID, buf) })
	checkContigPins(t, "get", objs, bytes)
}
