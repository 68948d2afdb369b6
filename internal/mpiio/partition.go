package mpiio

// The file-domain rule of two-phase I/O (Thakur, Gropp, Lusk): the aggregate
// range [gmin, gmax) is cut into equal, stripe-aligned byte widths, one per
// aggregator; aggregators are spread evenly over the communicator's ranks;
// and a collective runs as many rounds as its widest domain needs staging
// buffers. One rule each, no hint selects another: DESIGN.md §4 has the
// measurements that decided it.

import "slices"

// evenBounds is the boundary table, built in dst's storage: equal widths
// rounded up to the stripe, interior boundaries aligned down, boundaries at
// or past gmax clamped to gmax. bounds[0] = gmin and bounds[naggs] = gmax
// exactly.
func evenBounds(dst []int64, gmin, gmax int64, naggs int, stripe int64) []int64 {
	domain := evenDomain(gmin, gmax, naggs, stripe)
	bounds := slices.Grow(dst[:0], naggs+1)
	for k := 0; k <= naggs; k++ {
		bounds = append(bounds, evenBoundary(gmin, gmax, naggs, domain, stripe, k))
	}
	return bounds
}

// evenDomain is the nominal domain width of naggs aggregators: the range
// shared equally, rounded up to the stripe.
func evenDomain(gmin, gmax int64, naggs int, stripe int64) int64 {
	domain := (gmax - gmin + int64(naggs) - 1) / int64(naggs)
	return (domain + stripe - 1) / stripe * stripe
}

// evenBoundary is entry k of the boundary table. The table is monotone
// without a clamp: domain is a whole number of stripes, so boundary k ≥ 1
// sits domain bytes past boundary k-1 aligned down, which is past gmin.
func evenBoundary(gmin, gmax int64, naggs int, domain, stripe int64, k int) int64 {
	switch b := gmin + int64(k)*domain; {
	case k == 0:
		return gmin
	case k == naggs || b >= gmax:
		return gmax
	default:
		return b / stripe * stripe
	}
}

// readAggregators is a collective read's aggregator count without cb_nodes
// (DESIGN.md §4), from what the plan's allreduce gives every rank: the
// ranks, the servers, the stripe and [gmin, gmax). A read's client link is
// on its clock, so every rank reads while that keeps each domain wider than
// one stripe per server. When size domains would be at most servers stripes
// wide, each server takes one request per stripe instead; the count is then
// the one that minimises the widest domain in stripes plus the server
// requests per server, a domain of d stripes costing min(d, servers)
// requests. Ties go to the larger count. It allocates nothing.
func readAggregators(size, servers int, gmin, gmax, stripe int64) int {
	if widest, _ := domainCost(size, servers, gmin, gmax, stripe); widest > int64(servers) {
		return size
	}
	best, bestCost := size, int64(-1)
	for a := size; a >= 1; a-- {
		widest, reqs := domainCost(a, servers, gmin, gmax, stripe)
		// Scaled by servers to stay in integers.
		if c := widest*int64(servers) + reqs; bestCost < 0 || c < bestCost {
			best, bestCost = a, c
		}
	}
	return best
}

// domainCost walks naggs even domains over [gmin, gmax) and returns the
// widest in stripes and the server requests of them all.
func domainCost(naggs, servers int, gmin, gmax, stripe int64) (widest, reqs int64) {
	domain := evenDomain(gmin, gmax, naggs, stripe)
	lo := gmin
	for k := 1; k <= naggs; k++ {
		hi := evenBoundary(gmin, gmax, naggs, domain, stripe, k)
		if hi > lo {
			d := (hi+stripe-1)/stripe - lo/stripe
			widest = max(widest, d)
			reqs += min(d, int64(servers))
		}
		lo = hi
	}
	return widest, reqs
}

// evenAggRanks spreads the aggregators over the communicator, in dst's
// storage: aggregator a on rank a*size/naggs.
func evenAggRanks(dst []int, naggs, size int) []int {
	out := slices.Grow(dst[:0], naggs)
	for a := 0; a < naggs; a++ {
		out = append(out, a*size/naggs)
	}
	return out
}

// invertAggRanks builds the rank -> aggregator index table (-1 = not an
// aggregator) in dst's storage.
func invertAggRanks(dst []int, aggRanks []int, size int) []int {
	out := slices.Grow(dst[:0], size)
	for i := 0; i < size; i++ {
		out = append(out, -1)
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
