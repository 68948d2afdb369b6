package mpiio

import (
	"cmp"
	"slices"
	"sort"

	"pnetcdf/internal/mpi"
	"pnetcdf/internal/pfs"
)

// Balanced file-domain partitioning (the cb_partition hint). The default
// "even" mode divides the aggregate range [gmin, gmax) into equal byte
// widths, which the span traces showed loads aggregators 2.55x unevenly on
// skewed access patterns (EXPERIMENTS.md). Following the work-partitioning
// idea in Thakur et al.'s noncontiguous-access work, "balanced" mode builds
// a stripe-bucketed byte histogram of every rank's request segments
// (combined with one Allreduce), then places domain boundaries at
// equal-work splits so each aggregator writes roughly total/naggs bytes per
// collective call. Boundaries stay stripe-aligned and monotone; with a flat
// histogram the split degenerates to (stripe-rounded) even widths.

// cb_partition hint values.
const (
	PartitionEven     = "even"
	PartitionBalanced = "balanced"
)

// partitionHistogram is a byte histogram over [base, base+n*bucketW).
// base is gmin aligned down to the stripe and bucketW is a stripe
// multiple, so every bucket edge is an absolute stripe boundary — any
// boundary chosen from the histogram is automatically stripe-aligned.
type partitionHistogram struct {
	base    int64
	bucketW int64
	counts  []int64
}

// newPartitionHistogram sizes the histogram for [gmin, gmax) with at most
// `buckets` buckets of stripe-multiple width.
func newPartitionHistogram(gmin, gmax, stripe int64, buckets int) *partitionHistogram {
	if buckets < 1 {
		buckets = 1
	}
	base := gmin / stripe * stripe
	span := gmax - base
	stripes := (span + stripe - 1) / stripe
	per := (stripes + int64(buckets) - 1) / int64(buckets)
	w := per * stripe
	n := int((span + w - 1) / w)
	return &partitionHistogram{base: base, bucketW: w, counts: make([]int64, n)}
}

// add accumulates one rank's request segments. Segments must lie within
// [base, base+n*bucketW).
func (h *partitionHistogram) add(segs []pfs.Segment) {
	for _, s := range segs {
		off, n := s.Off, s.Len
		for n > 0 {
			b := (off - h.base) / h.bucketW
			k := h.base + (b+1)*h.bucketW - off
			if k > n {
				k = n
			}
			h.counts[b] += k
			off += k
			n -= k
		}
	}
}

// total returns the histogram's byte sum.
func (h *partitionHistogram) total() int64 {
	var t int64
	for _, c := range h.counts {
		t += c
	}
	return t
}

// effectiveDomains picks how many domains (at most naggs) the histogram can
// keep busy. Boundaries sit on bucket edges, so a request occupying B
// buckets cannot be spread more finely than whole buckets: splitting B=10
// buckets over naggs=8 domains forces [2,2,1,1,1,1,1,1] — a built-in 1.6x
// byte imbalance no boundary choice can remove. Using
// ceil(B/ceil(B/naggs)) domains instead gives every domain the same whole
// number of buckets' worth of slack ([2,2,2,2,2] here), trading idle
// aggregators for balance exactly when there is not enough work to go
// around — the fewer-but-fuller domains also make larger contiguous
// per-aggregator I/O, which is the two-phase goal in the first place.
func (h *partitionHistogram) effectiveDomains(naggs int) int {
	occ := 0
	for _, c := range h.counts {
		if c > 0 {
			occ++
		}
	}
	if occ <= 1 {
		return 1
	}
	per := (occ + naggs - 1) / naggs
	eff := (occ + per - 1) / per
	if eff > naggs {
		eff = naggs
	}
	return eff
}

// equalWorkBounds places monotone domain boundaries so that each domain
// carries an equal share of the histogram bytes: interior boundary k is the
// first bucket edge at which the cumulative byte count reaches k/n of the
// total, where n <= naggs is the effectiveDomains count. Bucket edges are
// absolute stripe positions, so interior boundaries are stripe-aligned; the
// table exactly covers [gmin, gmax) (bounds[0] = gmin, bounds[n] = gmax —
// no gap, no overlap). The second return value is the histogram work
// assigned to each domain (the per-aggregator planned bytes the
// observability layer exposes).
func (h *partitionHistogram) equalWorkBounds(gmin, gmax int64, naggs int) (bounds, planned []int64) {
	naggs = h.effectiveDomains(naggs)
	bounds = make([]int64, naggs+1)
	planned = make([]int64, naggs)
	bounds[0] = gmin
	bounds[naggs] = gmax
	total := h.total()
	cum := int64(0)  // bytes in buckets below idx
	prev := int64(0) // cumulative work at the previous boundary
	idx := 0
	for k := 1; k < naggs; k++ {
		target := total * int64(k) / int64(naggs)
		for idx < len(h.counts) && cum < target {
			cum += h.counts[idx]
			idx++
		}
		b := h.base + int64(idx)*h.bucketW
		if b < gmin {
			b = gmin
		}
		if b > gmax {
			b = gmax
		}
		if b < bounds[k-1] {
			b = bounds[k-1]
		}
		bounds[k] = b
		planned[k-1] = cum - prev
		prev = cum
	}
	planned[naggs-1] = total - prev
	return bounds, planned
}

// evenBounds reproduces the closed-form even split exactly as the pre-table
// boundary(k) computed it: equal widths rounded up to the stripe, interior
// boundaries aligned down, boundaries at or past gmax clamped to gmax.
func evenBounds(gmin, gmax int64, naggs int, stripe int64) []int64 {
	width := gmax - gmin
	domain := (width + int64(naggs) - 1) / int64(naggs)
	domain = (domain + stripe - 1) / stripe * stripe
	bounds := make([]int64, naggs+1)
	bounds[0] = gmin
	for k := 1; k < naggs; k++ {
		b := gmin + int64(k)*domain
		if b >= gmax {
			b = gmax
		} else {
			b = b / stripe * stripe
		}
		if b < bounds[k-1] {
			b = bounds[k-1]
		}
		bounds[k] = b
	}
	bounds[naggs] = gmax
	return bounds
}

// evenAggRanks is the historical aggregator spread: aggregator a on rank
// a*size/naggs.
func evenAggRanks(naggs, size int) []int {
	out := make([]int, naggs)
	for a := range out {
		out[a] = a * size / naggs
	}
	return out
}

// invertAggRanks builds the rank -> aggregator index table (-1 = not an
// aggregator), replacing the old per-call O(naggs) scan in aggIndex.
func invertAggRanks(aggRanks []int, size int) []int {
	out := make([]int, size)
	for i := range out {
		out[i] = -1
	}
	for a, r := range aggRanks {
		out[r] = a
	}
	return out
}

// roundsFor returns the round count covering the widest domain in the
// table. Deriving it from the actual table (rather than the nominal even
// width) also covers the tail domain, which can exceed the nominal width
// by up to a stripe when gmin is unaligned.
func roundsFor(bounds []int64, cbbuf int64) int64 {
	var rounds int64 = 0
	for k := 0; k+1 < len(bounds); k++ {
		w := bounds[k+1] - bounds[k]
		if r := (w + cbbuf - 1) / cbbuf; r > rounds {
			rounds = r
		}
	}
	if rounds < 1 {
		rounds = 1
	}
	return rounds
}

// domainBytes returns how many bytes of segs fall in each domain of the
// boundary table — one rank's row of the placement matrix.
func domainBytes(segs []pfs.Segment, bounds []int64) []int64 {
	naggs := len(bounds) - 1
	out := make([]int64, naggs)
	for _, s := range segs {
		off, n := s.Off, s.Len
		for n > 0 {
			// First domain whose upper boundary is past off. Empty domains
			// (equal boundaries) are skipped by the strict inequality.
			a := sort.Search(naggs, func(i int) bool { return bounds[i+1] > off })
			if a == naggs {
				break // past gmax; defensive, segments agreed the range
			}
			k := bounds[a+1] - off
			if k > n {
				k = n
			}
			out[a] += k
			off += k
			n -= k
		}
	}
	return out
}

// placeAggregators assigns each domain to a distinct rank, preferring the
// rank that owns the most request bytes inside the domain so phase-1
// exchange traffic stays local (ROMIO's "aggregator near the data" rule).
// Each rank contributes its per-domain byte row; one Allreduce makes the
// matrix identical everywhere, and the greedy assignment below is
// deterministic, so all ranks agree on the placement without a leader.
// Domains are served in descending byte order; ties go to the lowest rank.
func placeAggregators(comm *mpi.Comm, bounds []int64, segs []pfs.Segment) []int {
	naggs := len(bounds) - 1
	size := comm.Size()
	matrix := make([]int64, size*naggs)
	copy(matrix[comm.Rank()*naggs:], domainBytes(segs, bounds))
	matrix = comm.AllreduceI64(matrix, mpi.OpSum)

	totals := make([]int64, naggs)
	for r := 0; r < size; r++ {
		for a := 0; a < naggs; a++ {
			totals[a] += matrix[r*naggs+a]
		}
	}
	order := make([]int, naggs)
	for a := range order {
		order[a] = a
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(totals[b], totals[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	taken := make([]bool, size)
	out := make([]int, naggs)
	for _, a := range order {
		best, bestBytes := -1, int64(-1)
		for r := 0; r < size; r++ {
			if taken[r] {
				continue
			}
			if b := matrix[r*naggs+a]; b > bestBytes {
				best, bestBytes = r, b
			}
		}
		out[a] = best
		taken[best] = true
	}
	return out
}
