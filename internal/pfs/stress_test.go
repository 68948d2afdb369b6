package pfs

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
)

// Concurrent stress over the sharded data plane, meant to run under the race
// detector (verify.sh does): simulated rank goroutines hammer one file's
// chunk shards with disjoint and overlapping vectored I/O, serialize a
// read-modify-write counter through the RMW range lock, and churn the
// RWMutex file table — all the locking added for the zero-copy path.

func TestConcurrentShardedStress(t *testing.T) {
	const (
		ranks   = 16
		iters   = 50
		blockSz = 8 << 10
	)
	fs := New(BlueHorizon())
	f, _ := fs.Create("stress.dat", 0)

	// Region map: [0,8) RMW counter; one chunk at chunkSize holds the
	// overlapping-writer target; disjoint per-rank blocks start at 2*chunkSize.
	const counterOff = int64(0)
	const sharedOff = int64(chunkSize)
	disjointOff := func(rank int) int64 { return int64(2*chunkSize + rank*blockSz) }

	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			h, _, err := fs.Open("stress.dat", 0)
			if err != nil {
				t.Error(err)
				return
			}
			own := make([]byte, blockSz)
			for i := range own {
				own[i] = byte(rank)
			}
			shared := make([]byte, 4<<10)
			for i := range shared {
				shared[i] = byte(rank)
			}
			got := make([]byte, blockSz)
			for i := 0; i < iters; i++ {
				// Disjoint vectored write + read-back on private range.
				segs := []Segment{
					{Off: disjointOff(rank), Len: blockSz / 2},
					{Off: disjointOff(rank) + blockSz/2, Len: blockSz / 2},
				}
				iov := [][]byte{own[:blockSz/4], own[blockSz/4:]}
				if _, err := h.WriteVec(0, segs, iov); err != nil {
					t.Error(err)
					return
				}
				if _, err := h.ReadAt(0, got, disjointOff(rank)); err != nil {
					t.Error(err)
					return
				}
				for j, b := range got {
					if b != byte(rank) {
						t.Errorf("rank %d torn private read at %d: %d", rank, j, b)
						return
					}
				}
				// Overlapping single-chunk write: every rank targets the same
				// range; atomicity is per chunk, so any interleaving is a
				// race-detector workout without a data race.
				if _, err := h.WriteAt(0, shared, sharedOff); err != nil {
					t.Error(err)
					return
				}
				// RMW-locked counter increment: the range lock must make the
				// read-increment-write atomic across ranks.
				h.LockRMW(counterOff, 8)
				cnt := make([]byte, 8)
				if _, err := h.ReadAt(0, cnt, counterOff); err != nil {
					t.Error(err)
					h.UnlockRMW(counterOff, 8)
					return
				}
				binary.BigEndian.PutUint64(cnt, binary.BigEndian.Uint64(cnt)+1)
				if _, err := h.WriteAt(0, cnt, counterOff); err != nil {
					t.Error(err)
					h.UnlockRMW(counterOff, 8)
					return
				}
				h.UnlockRMW(counterOff, 8)
			}
		}(r)
	}
	// Concurrently churn the file table: create and stat other names
	// while the rank goroutines hold and use handles from it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters*4; i++ {
			name := fmt.Sprintf("churn-%d.dat", i%8)
			fs.Create(name, 0)
			if !fs.Exists(name) {
				t.Errorf("churn: %s vanished", name)
				return
			}
		}
	}()
	wg.Wait()

	cnt := make([]byte, 8)
	if _, err := f.ReadAt(0, cnt, counterOff); err != nil {
		t.Fatal(err)
	}
	if got := binary.BigEndian.Uint64(cnt); got != ranks*iters {
		t.Errorf("RMW counter = %d, want %d (lost updates mean the range lock failed)", got, ranks*iters)
	}
	shared := make([]byte, 4<<10)
	if _, err := f.ReadAt(0, shared, sharedOff); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(shared); i++ {
		if shared[i] != shared[0] {
			t.Errorf("single-chunk write not atomic: byte %d = %d, byte 0 = %d", i, shared[i], shared[0])
			break
		}
	}
	for r := 0; r < ranks; r++ {
		got := make([]byte, blockSz)
		if _, err := f.ReadAt(0, got, disjointOff(r)); err != nil {
			t.Fatal(err)
		}
		for j, b := range got {
			if b != byte(r) {
				t.Fatalf("final private block of rank %d corrupt at %d: %d", r, j, b)
			}
		}
	}
}
