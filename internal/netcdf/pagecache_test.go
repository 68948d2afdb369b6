package netcdf

import (
	"bytes"
	"math/rand"
	"testing"
)

// countingStore wraps MemStore and counts backend operations, so tests can
// assert the cache actually absorbs traffic.
type countingStore struct {
	MemStore
	reads, writes int
}

func (c *countingStore) ReadAt(p []byte, off int64) (int, error) {
	c.reads++
	return c.MemStore.ReadAt(p, off)
}

func (c *countingStore) WriteAt(p []byte, off int64) (int, error) {
	c.writes++
	return c.MemStore.WriteAt(p, off)
}

func TestPageCacheAbsorbsSmallWrites(t *testing.T) {
	store := &countingStore{}
	pc := newPageCache(store, 1024, 8)
	// 100 tiny writes within one page: at most one backend read.
	for i := 0; i < 100; i++ {
		if err := pc.writeAt([]byte{byte(i)}, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if store.writes != 0 {
		t.Fatalf("write-back cache issued %d backend writes before flush", store.writes)
	}
	if store.reads != 1 {
		t.Fatalf("expected 1 page fill, got %d", store.reads)
	}
	if err := pc.flush(); err != nil {
		t.Fatal(err)
	}
	if store.writes != 1 {
		t.Fatalf("flush issued %d writes, want 1", store.writes)
	}
	got := make([]byte, 100)
	if err := pc.readAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("byte %d = %d", i, got[i])
		}
	}
}

func TestPageCacheEvictionWritesBack(t *testing.T) {
	store := &countingStore{}
	pc := newPageCache(store, 512, 2) // tiny cache: 2 pages
	// Dirty three pages; the first must be evicted and written back.
	for p := 0; p < 3; p++ {
		if err := pc.writeAt([]byte{byte(p + 1)}, int64(p)*512); err != nil {
			t.Fatal(err)
		}
	}
	if store.writes == 0 {
		t.Fatal("eviction did not write back a dirty page")
	}
	// The evicted page's data must be readable again (from the store).
	got := make([]byte, 1)
	if err := pc.readAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatalf("evicted page lost data: %d", got[0])
	}
}

func TestPageCacheLargeWriteBypassConsistency(t *testing.T) {
	// A large write overlapping dirty cached pages must not resurrect stale
	// bytes.
	store := &countingStore{}
	pc := newPageCache(store, 512, 8)
	// Dirty a page with 0xAA.
	if err := pc.writeAt(bytes.Repeat([]byte{0xAA}, 512), 0); err != nil {
		t.Fatal(err)
	}
	// Big write (>= 4 pages) of 0xBB covering it.
	if err := pc.writeAt(bytes.Repeat([]byte{0xBB}, 4*512), 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 512)
	if err := pc.readAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0xBB {
			t.Fatalf("stale byte at %d: %#x", i, b)
		}
	}
	// Partial-edge variant: big write starting mid-page.
	if err := pc.writeAt(bytes.Repeat([]byte{0xCC}, 512), 0); err != nil {
		t.Fatal(err)
	}
	if err := pc.writeAt(bytes.Repeat([]byte{0xDD}, 4*512), 256); err != nil {
		t.Fatal(err)
	}
	head := make([]byte, 256)
	if err := pc.readAt(head, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range head {
		if b != 0xCC {
			t.Fatalf("head byte %d = %#x, want CC", i, b)
		}
	}
	tail := make([]byte, 256)
	if err := pc.readAt(tail, 256); err != nil {
		t.Fatal(err)
	}
	for i, b := range tail {
		if b != 0xDD {
			t.Fatalf("tail byte %d = %#x, want DD", i, b)
		}
	}
}

func TestPageCacheLargeReadSeesDirtyPages(t *testing.T) {
	store := &countingStore{}
	pc := newPageCache(store, 512, 8)
	if err := pc.writeAt([]byte{0xEE}, 100); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 4*512)
	if err := pc.readAt(big, 0); err != nil {
		t.Fatal(err)
	}
	if big[100] != 0xEE {
		t.Fatalf("large read missed dirty page: %#x", big[100])
	}
}

func TestPageCacheRandomizedOracle(t *testing.T) {
	store := &countingStore{}
	pc := newPageCache(store, 256, 4)
	oracle := make([]byte, 64<<10)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		off := rng.Int63n(int64(len(oracle) - 2048))
		n := rng.Intn(2048) + 1
		if rng.Intn(2) == 0 {
			p := make([]byte, n)
			rng.Read(p)
			copy(oracle[off:], p)
			if err := pc.writeAt(p, off); err != nil {
				t.Fatal(err)
			}
		} else {
			got := make([]byte, n)
			if err := pc.readAt(got, off); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, oracle[off:off+int64(n)]) {
				t.Fatalf("iteration %d: mismatch at %d+%d", i, off, n)
			}
		}
	}
	if err := pc.flush(); err != nil {
		t.Fatal(err)
	}
	// After flush, the store itself must match the oracle prefix written.
	final := make([]byte, len(oracle))
	if _, err := store.MemStore.ReadAt(final, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(final[:len(store.MemStore.Data)], oracle[:len(store.MemStore.Data)]) {
		t.Fatal("store content diverged from oracle after flush")
	}
}
