package cdf

import "hash/maphash"

// indexMinLen is the list length up to which name lookups scan and no index
// is built. A scan of 32 names takes under 30 ns (a hashed lookup ~12 ns; the
// two cross near 10 names) and costs no memory, and the paper's own workloads
// have 1 to 27 variables and are opened by every rank on every run — where an
// index per header copy is a measurable share of what an open allocates.
// Longer lists are hashed. The switch is the list's length, nothing a caller
// sets.
const indexMinLen = 32

// indexSeed seeds every index's hash. It is drawn once per process, as Go's
// maps draw theirs, so the names in a crafted file cannot be chosen to
// collide.
var indexSeed = maphash.MakeSeed()

// nameIndex finds the names of the first n elements of one of a Header's
// lists (Dims or Vars). It is an open-addressing table, probed linearly and
// never more than a quarter full: half full, a hit probes 1.5 slots on
// average and a miss 2.5, and the varying count made a lookup of the
// 4096-variable header take 39 ns instead of 31. A slot holds an element's position plus one in
// its low 16 bits, or 0 when empty, and 16 more bits of the name's hash
// above them, so a probe reads the list's name — the index keeps none of its
// own — only when those bits match. The zero value covers nothing: a header
// built as a literal, or appended to directly, is still answered correctly
// by a scan of the elements past n, as is a list longer than maxIndexed.
//
// Lookups only read, so any number of goroutines may share a header that no
// one is changing. The Header methods that add or rename an element keep the
// index current; nothing else may rename an element of an indexed list.
type nameIndex struct {
	slots []uint32
	n     int
}

// maxIndexed is the longest prefix a slot's 16 position bits can cover; it
// is above MaxVars and MaxDims.
const maxIndexed = 1<<16 - 1

// probe is where a search for key starts, and the hash bits its slot holds.
func (x *nameIndex) probe(key string) (home int, tag uint32) {
	h := maphash.String(indexSeed, key)
	return int(h & uint64(len(x.slots)-1)), uint32(h>>48) << 16
}

// lookup returns the indexed position whose element in a list of length
// size carries key, or -1. The caller scans from x.n on.
func (x *nameIndex) lookup(key string, size int, name func(int) string) int {
	if len(x.slots) == 0 {
		return -1
	}
	mask := len(x.slots) - 1
	i, tag := x.probe(key)
	for ; x.slots[i] != 0; i = (i + 1) & mask {
		if s := x.slots[i]; s&^maxIndexed == tag {
			if p := int(s&maxIndexed) - 1; p < size && name(p) == key {
				return p
			}
		}
	}
	return -1
}

// insert files position p under key.
func (x *nameIndex) insert(p int, key string) {
	mask := len(x.slots) - 1
	i, tag := x.probe(key)
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = tag | uint32(p+1)
}

// extend brings the index up to date with a list that now holds n names.
// Lists no longer than indexMinLen are left unindexed. The table doubles
// when more than a quarter full, refiling the positions it held.
func (x *nameIndex) extend(n int, name func(int) string) {
	n = min(n, maxIndexed)
	if n <= indexMinLen || x.n >= n {
		return
	}
	if 4*n > len(x.slots) {
		size := 2 * len(x.slots)
		if size == 0 {
			size = 4 * indexMinLen
		}
		for size < 4*n {
			size *= 2
		}
		x.slots = make([]uint32, size)
		for p := 0; p < x.n; p++ {
			x.insert(p, name(p))
		}
	}
	for p := x.n; p < n; p++ {
		x.insert(p, name(p))
	}
	x.n = n
}

// rename refiles element id, whose name is still old, under new. The slot
// old held is emptied by shifting back the entries probed past it, so the
// table needs no tombstones and a rename allocates nothing.
func (x *nameIndex) rename(id int, old, new string, name func(int) string) {
	if id >= x.n {
		return
	}
	mask := len(x.slots) - 1
	i, _ := x.probe(old)
	for x.slots[i]&maxIndexed != uint32(id+1) {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; x.slots[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j]: then a probe for it never passes i.
		h, _ := x.probe(name(int(x.slots[j]&maxIndexed) - 1))
		if (h-i-1)&mask < (j-i)&mask {
			continue
		}
		x.slots[i], i = x.slots[j], j
	}
	x.slots[i] = 0
	x.insert(id, new)
}

// clone returns an independent copy.
func (x *nameIndex) clone() nameIndex {
	return nameIndex{slots: append([]uint32(nil), x.slots...), n: x.n}
}

// firstDup returns the position of the first of n names that an earlier
// one already carries, or -1. An index that covers the list answers without
// allocating: n distinct names lead to n distinct positions exactly when
// every name leads back to its own.
func (x *nameIndex) firstDup(n int, name func(int) string) int {
	if x.n == n {
		agree := true
		for i := 0; i < n && agree; i++ {
			agree = x.lookup(name(i), n, name) == i
		}
		if agree {
			return -1
		}
	}
	return firstDupUnindexed(n, name)
}

// firstDupUnindexed is the index-free form, for headers built or changed
// behind the index's back.
func firstDupUnindexed(n int, name func(int) string) int {
	if n <= indexMinLen {
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				if name(j) == name(i) {
					return i
				}
			}
		}
		return -1
	}
	seen := make(map[string]struct{}, n)
	for i := 0; i < n; i++ {
		if _, dup := seen[name(i)]; dup {
			return i
		}
		seen[name(i)] = struct{}{}
	}
	return -1
}
