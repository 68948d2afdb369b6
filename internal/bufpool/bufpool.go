// Package bufpool provides size-classed, sync.Pool-backed byte buffers for
// the I/O hot paths: collective exchange rounds, data-sieving cover windows,
// and external-representation pack buffers. The pools exist to keep steady
// per-round allocations out of the two-phase loop (DESIGN.md §4); they are
// an optimization only — dropping a buffer instead of returning it is always
// correct.
package bufpool

import "sync"

// Size classes are powers of two from 4 KiB to 16 MiB. Requests above the
// largest class are allocated directly and never pooled; requests below the
// smallest use the smallest class.
const (
	minShift   = 12 // 4 KiB
	maxShift   = 24 // 16 MiB
	numClasses = maxShift - minShift + 1
)

// Pools hold *[]byte: a slice header stored in an interface directly would
// be boxed on every Put. The boxes themselves cycle through headers — GetDirty
// empties the one it took from a class pool and parks it there, Put refills
// one — so a GetDirty/Put cycle allocates nothing once both pools are warm.
var (
	pools   [numClasses]sync.Pool
	headers sync.Pool
)

// class returns the index of the smallest class holding n bytes, or -1 when
// n exceeds the largest class.
func class(n int) int {
	c := 0
	for size := 1 << minShift; size < n; size <<= 1 {
		c++
	}
	if c >= numClasses {
		return -1
	}
	return c
}

// GetDirty returns a buffer of length n whose contents are unspecified: every
// byte is overwritten before it is read. Callers must not assume any
// capacity beyond n.
func GetDirty(n int) []byte {
	c := class(n)
	if c < 0 {
		return make([]byte, n)
	}
	if v := pools[c].Get(); v != nil {
		h := v.(*[]byte)
		b := *h
		*h = nil // a parked header must not keep the buffer alive
		headers.Put(h)
		return b[:n]
	}
	return make([]byte, n, 1<<(minShift+c))
}

// Put returns a buffer obtained from GetDirty to its pool. The caller
// must not retain any reference to b (or slices of it) afterwards. Buffers
// not obtained from this package (wrong capacity class) are silently
// dropped.
func Put(b []byte) {
	c := cap(b)
	if c < 1<<minShift || c&(c-1) != 0 || c > 1<<maxShift {
		return
	}
	h, _ := headers.Get().(*[]byte)
	if h == nil {
		h = new([]byte)
	}
	*h = b[:c]
	pools[class(c)].Put(h)
}

// PutAll returns every non-nil buffer in bufs to its pool and nils the
// slots, so a retained backing array cannot alias pooled memory. It is the
// release half of the round-table pattern used by the two-phase collective
// path: buffers are parked in a by-rank slice while the round's request
// references them, then discharged together once that request returns.
func PutAll(bufs [][]byte) {
	for i, b := range bufs {
		if b != nil {
			Put(b)
			bufs[i] = nil
		}
	}
}
