package bufpool

import "testing"

func TestGetPutRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 4096, 4097, 1 << 20, 1<<24 + 1} {
		b := Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d) has length %d", n, len(b))
		}
		for i := range b {
			if b[i] != 0 {
				t.Fatalf("Get(%d) is not zeroed at %d", n, i)
			}
			b[i] = 0xff
		}
		Put(b)
	}
	// Foreign buffers are dropped, not pooled: the next Get of that class
	// must still hold a full class-sized backing array.
	Put(make([]byte, 5000))
	if b := GetDirty(8192); cap(b) < 8192 {
		t.Fatalf("GetDirty(8192) returned capacity %d", cap(b))
	}
	bufs := [][]byte{Get(10), nil, Get(5000)}
	PutAll(bufs)
	for i, b := range bufs {
		if b != nil {
			t.Fatalf("PutAll left slot %d set", i)
		}
	}
}

// TestGetPutAllocatesNothing pins the steady state of the exchange hot path:
// once a class pool and the header pool are warm, taking a buffer and giving
// it back allocates no object — not the buffer, and not the *[]byte box Put
// hands to sync.Pool.
func TestGetPutAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; the pin does not hold")
	}
	for _, n := range []int{100, 4096, 70000} {
		if got := testing.AllocsPerRun(1000, func() { Put(GetDirty(n)) }); got != 0 {
			t.Errorf("GetDirty(%d)+Put: %v allocations per cycle, want 0", n, got)
		}
	}
	// Two buffers in flight at once, as the pipelined loop's generations are.
	if got := testing.AllocsPerRun(1000, func() {
		bufs := [2][]byte{GetDirty(8192), GetDirty(8192)}
		PutAll(bufs[:])
	}); got != 0 {
		t.Errorf("two-buffer cycle: %v allocations, want 0", got)
	}
}
