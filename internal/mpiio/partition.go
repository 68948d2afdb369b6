package mpiio

// The file-domain rule of two-phase I/O (Thakur, Gropp, Lusk): the aggregate
// range [gmin, gmax) is cut into equal, stripe-aligned byte widths, one per
// aggregator; aggregators are spread evenly over the communicator's ranks;
// and a collective runs as many rounds as its widest domain needs staging
// buffers. One rule each, no hint selects another: DESIGN.md §12 has the
// measurements that decided it.

// evenBounds is the boundary table: equal widths rounded up to the stripe,
// interior boundaries aligned down, boundaries at or past gmax clamped to
// gmax. bounds[0] = gmin and bounds[naggs] = gmax exactly.
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

// evenAggRanks spreads the aggregators over the communicator: aggregator a
// on rank a*size/naggs.
func evenAggRanks(naggs, size int) []int {
	out := make([]int, naggs)
	for a := range out {
		out[a] = a * size / naggs
	}
	return out
}

// invertAggRanks builds the rank -> aggregator index table (-1 = not an
// aggregator).
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
// table — the actual table, not the nominal stripe-rounded width: the tail
// domain can exceed the nominal width by up to a stripe when gmin is
// unaligned, and every domain can fall short of it when the whole range is
// smaller than a stripe, where rounds counted from the nominal width would
// have nothing in any window.
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
