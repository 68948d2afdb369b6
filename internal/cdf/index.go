package cdf

import "maps"

// indexMinLen is the list length up to which name lookups scan and no index
// is built. A scan of 32 names takes under 30 ns (a hashed lookup ~12 ns; the
// two cross near 10 names) and costs no memory, and the paper's own workloads
// have 1 to 27 variables and are opened by every rank on every run — where a
// map per header copy is a measurable share of what an open allocates. Longer
// lists are hashed. The switch is the list's length, nothing a caller sets.
const indexMinLen = 32

// nameIndex maps the names of the first n elements of one of a Header's
// lists (Dims or Vars) to their positions. The zero value covers nothing:
// a header built as a literal, or appended to directly, is still answered
// correctly by a scan of the elements past n.
//
// Lookups only read, so any number of goroutines may share a header that no
// one is changing. The Header methods that add or rename an element keep the
// index current; nothing else may rename an element of an indexed list.
type nameIndex struct {
	ids map[string]int32
	n   int
}

// lookup returns the indexed position of name, if any. The caller confirms
// that the element there still carries the name and scans from x.n on.
func (x *nameIndex) lookup(name string) (int, bool) {
	id, ok := x.ids[name]
	return int(id), ok
}

// extend brings the index up to date with a list that now holds n names.
// Lists no longer than indexMinLen are left unindexed.
func (x *nameIndex) extend(n int, name func(int) string) {
	if n <= indexMinLen || x.n >= n {
		return
	}
	if x.ids == nil {
		x.ids = make(map[string]int32, n)
	}
	for i := x.n; i < n; i++ {
		x.ids[name(i)] = int32(i)
	}
	x.n = n
}

// rename moves element id's entry from the name old to the name new.
func (x *nameIndex) rename(id int, old, new string) {
	if id >= x.n {
		return
	}
	if x.ids[old] == int32(id) {
		delete(x.ids, old)
	}
	x.ids[new] = int32(id)
}

// clone returns an independent copy.
func (x *nameIndex) clone() nameIndex {
	return nameIndex{ids: maps.Clone(x.ids), n: x.n}
}

// firstDup returns the position of the first of n names that an earlier
// one already carries, or -1. An index that covers the list answers without
// allocating: n distinct names map to n distinct positions exactly when
// every name maps back to its own.
func (x *nameIndex) firstDup(n int, name func(int) string) int {
	if x.n == n {
		agree := true
		for i := 0; i < n && agree; i++ {
			id, ok := x.ids[name(i)]
			agree = ok && int(id) == i
		}
		if agree {
			return -1
		}
	}
	return firstDupUnindexed(n, name)
}

// firstDupUnindexed is the index-free form, for attribute lists and for
// headers built or changed behind the index's back.
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
