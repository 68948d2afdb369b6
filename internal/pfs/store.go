package pfs

import (
	"bytes"
	"sync"
	"sync/atomic"
)

// The chunk store behind every simulated file. Data lives in sparse 256 KiB
// chunks spread over a fixed number of lock shards, so concurrent rank
// goroutines writing disjoint regions of one file do not convoy on a single
// file mutex (DESIGN.md §6).
//
// Consistency model: one chunk access is atomic; a multi-chunk request is
// not. Concurrent requests to overlapping ranges may interleave per chunk —
// the same guarantee a real parallel file system gives unaligned concurrent
// writers, and the reason the MPI-IO layer above takes the range RMW lock
// around its read-modify-write windows.

// storeShards is the number of chunk lock shards per file. Power of two;
// chunks are distributed round-robin, so the k goroutines of a k-rank run
// touching adjacent file regions land on distinct shards.
const storeShards = 32

type storeShard struct {
	mu     sync.Mutex
	chunks map[int64][]byte
	// Pad to a cache line so shard locks on adjacent ranks do not false-share.
	_ [64 - 8]byte //nolint:unused
}

// chunkStore is the sharded chunk map plus the file size.
type chunkStore struct {
	size   atomic.Int64
	shards [storeShards]storeShard
}

func (s *chunkStore) shard(chunkIdx int64) *storeShard {
	return &s.shards[chunkIdx&(storeShards-1)]
}

// grow raises the stored size to at least end (monotonic max via CAS, so
// concurrent writers never shrink each other's growth).
func (s *chunkStore) grow(end int64) {
	for {
		cur := s.size.Load()
		if end <= cur || s.size.CompareAndSwap(cur, end) {
			return
		}
	}
}

// writeAt copies the next n bytes of cur into the chunks covering
// [off, off+n), taking each chunk's shard lock once for all the iovec pieces
// that land in it: an aggregator's iovec holds one piece per received block,
// hundreds to a chunk. With discard, only the size is tracked (timing-only
// bulk data) and cur skips the bytes.
//
// A new chunk the write covers entirely is made from its pieces by
// joinChunk, with no zeroing pass; one it covers in part is made zeroed, so
// that what no piece covers reads as a hole.
func (s *chunkStore) writeAt(off, n int64, cur *iovCursor, discard bool) {
	s.grow(off + n)
	if discard {
		cur.skip(n)
		return
	}
	for n > 0 {
		idx, cOff := off/chunkSize, off%chunkSize
		m := min(chunkSize-cOff, n)
		sh := s.shard(idx)
		sh.mu.Lock()
		c := sh.chunks[idx]
		joined := false
		if c == nil {
			if m == chunkSize {
				c = joinChunk(cur)
				joined = c != nil
			}
			if c == nil {
				c = make([]byte, chunkSize)
			}
			if sh.chunks == nil {
				sh.chunks = map[int64][]byte{}
			}
			sh.chunks[idx] = c
		}
		if !joined {
			for dst := c[cOff : cOff+m]; len(dst) > 0; {
				dst = dst[copy(dst, cur.next(int64(len(dst)))):]
			}
		}
		sh.mu.Unlock()
		off += m
		n -= m
	}
}

// maxJoin is the most iovec pieces joinChunk gathers for one chunk, on the
// stack.
const maxJoin = 64

// joinChunk returns a new chunk holding the next chunkSize bytes at cur,
// made by bytes.Join from the iovec pieces they lie in: Join allocates
// without zeroing, and copies each piece once. When the bytes lie in more
// than maxJoin pieces it returns nil, with cur where it was. The pieces are
// gathered by a copy of cur into an array: a store through a slice or
// through cur would let the iovec's memory escape to the heap at every
// caller of the file's requests.
func joinChunk(cur *iovCursor) []byte {
	var pieces [maxJoin][]byte
	ahead, k := *cur, 0
	for n := int64(chunkSize); n > 0; k++ {
		if k == maxJoin {
			return nil
		}
		pieces[k] = ahead.next(n)
		n -= int64(len(pieces[k]))
	}
	cur.i, cur.pos = ahead.i, ahead.pos
	return bytes.Join(pieces[:k], nil)
}

// readAt fills p from the chunks at off; holes and bytes beyond EOF read as
// zero.
func (s *chunkStore) readAt(p []byte, off int64) {
	for len(p) > 0 {
		idx := off / chunkSize
		cOff := off % chunkSize
		n := chunkSize - cOff
		if n > int64(len(p)) {
			n = int64(len(p))
		}
		sh := s.shard(idx)
		sh.mu.Lock()
		c := sh.chunks[idx]
		if c != nil {
			copy(p[:n], c[cOff:cOff+n])
		}
		sh.mu.Unlock()
		if c == nil {
			clear(p[:n])
		}
		p = p[n:]
		off += n
	}
}

// truncate sets the size, discarding chunks beyond it and zeroing the tail
// of the boundary chunk. It takes every shard lock (in order) so no writer
// holds a chunk mid-copy while its storage is reclaimed.
func (s *chunkStore) truncate(size int64) {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	if size < s.size.Load() {
		first := size / chunkSize
		for i := range s.shards {
			for idx := range s.shards[i].chunks {
				if idx > first {
					delete(s.shards[i].chunks, idx)
				}
			}
		}
		sh := s.shard(first)
		if c := sh.chunks[first]; c != nil {
			clear(c[size%chunkSize:])
		}
	}
	s.size.Store(size)
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].mu.Unlock()
	}
}

// rangeLock grants exclusive access to byte ranges of one file. The data
// sieving write path locks exactly its read-modify-write window, so sieving
// writers touching disjoint regions proceed in parallel instead of
// serializing on one file-wide mutex as they did behind the old rmw lock.
type rangeLock struct {
	mu   sync.Mutex
	cond *sync.Cond
	held []Segment
}

// lock blocks until [off, off+n) overlaps no held range, then claims it.
// Zero-length ranges are no-ops.
func (l *rangeLock) lock(off, n int64) {
	if n <= 0 {
		return
	}
	l.mu.Lock()
	if l.cond == nil {
		l.cond = sync.NewCond(&l.mu)
	}
	for l.overlaps(off, n) {
		l.cond.Wait()
	}
	l.held = append(l.held, Segment{Off: off, Len: n})
	l.mu.Unlock()
}

// unlock releases a range previously claimed with lock. The range must match
// a held claim exactly.
func (l *rangeLock) unlock(off, n int64) {
	if n <= 0 {
		return
	}
	l.mu.Lock()
	for i, h := range l.held {
		if h.Off == off && h.Len == n {
			last := len(l.held) - 1
			l.held[i] = l.held[last]
			l.held = l.held[:last]
			l.mu.Unlock()
			if l.cond != nil {
				l.cond.Broadcast()
			}
			return
		}
	}
	l.mu.Unlock()
	panic("pfs: unlock of range not held")
}

func (l *rangeLock) overlaps(off, n int64) bool {
	for _, h := range l.held {
		if off < h.Off+h.Len && h.Off < off+n {
			return true
		}
	}
	return false
}
