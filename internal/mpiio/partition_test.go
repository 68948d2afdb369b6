package mpiio

import (
	"fmt"
	"testing"

	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/pfs"
)

// checkBounds asserts the partition invariants the boundary table must
// satisfy: one domain per aggregator, exact coverage of [gmin, gmax) (no gap,
// no overlap), monotone boundaries, and interior boundaries on absolute
// stripe positions unless clamped to an unaligned gmin/gmax.
func checkBounds(t *testing.T, name string, bounds []int64, gmin, gmax, stripe int64, naggs int) {
	t.Helper()
	if n := len(bounds) - 1; n != naggs {
		t.Fatalf("%s: table has %d domains, want %d", name, n, naggs)
	}
	if bounds[0] != gmin {
		t.Errorf("%s: bounds[0] = %d, want gmin %d", name, bounds[0], gmin)
	}
	if bounds[naggs] != gmax {
		t.Errorf("%s: bounds[%d] = %d, want gmax %d", name, naggs, bounds[naggs], gmax)
	}
	for k := 1; k <= naggs; k++ {
		if bounds[k] < bounds[k-1] {
			t.Errorf("%s: bounds[%d] = %d < bounds[%d] = %d (not monotone)",
				name, k, bounds[k], k-1, bounds[k-1])
		}
	}
	for k := 1; k < naggs; k++ {
		b := bounds[k]
		if b == gmin || b == gmax {
			continue // clamped to an endpoint, which may be unaligned
		}
		if b%stripe != 0 {
			t.Errorf("%s: interior bounds[%d] = %d not stripe-aligned (stripe %d)",
				name, k, b, stripe)
		}
	}
}

// evenBounds must satisfy the partition invariants for every geometry,
// unaligned endpoints and more aggregators than stripes included.
func TestEvenBoundsInvariants(t *testing.T) {
	cases := []struct {
		gmin, gmax, stripe int64
		naggs              int
	}{
		{0, 1 << 20, 262144, 4},
		{1492, 2643408, 262144, 8},
		{7, 1000, 256, 1},
		{100, 300, 256, 6},
		{300, 17*256 + 123, 256, 5},
	}
	for ci, tc := range cases {
		bounds := evenBounds(tc.gmin, tc.gmax, tc.naggs, tc.stripe)
		checkBounds(t, "even", bounds, tc.gmin, tc.gmax, tc.stripe, tc.naggs)
		if t.Failed() {
			t.Fatalf("case %d failed", ci)
		}
	}
}

// aggIndex must be the exact inverse of aggRank for every (commSize, naggs)
// pair up to 64.
func TestAggIndexInverseProperty(t *testing.T) {
	for size := 1; size <= 64; size++ {
		for naggs := 1; naggs <= size; naggs++ {
			aggRanks := evenAggRanks(naggs, size)
			p := collectivePlan{naggs: naggs, commSize: size,
				aggRanks: aggRanks, aggOf: invertAggRanks(aggRanks, size)}
			// Reference: the old linear scan over the closed-form spread.
			ref := func(rank int) int {
				for a := 0; a < naggs; a++ {
					if a*size/naggs == rank {
						return a
					}
				}
				return -1
			}
			for rank := 0; rank < size; rank++ {
				if got, want := p.aggIndex(rank), ref(rank); got != want {
					t.Fatalf("size=%d naggs=%d: aggIndex(%d) = %d, want %d",
						size, naggs, rank, got, want)
				}
			}
			for a := 0; a < naggs; a++ {
				if p.aggIndex(p.aggRank(a)) != a {
					t.Fatalf("size=%d naggs=%d: aggIndex(aggRank(%d)) != %d", size, naggs, a, a)
				}
			}
		}
	}
}

// invertAggRanks inverts any placement of domains on distinct ranks, not only
// the ascending spread evenAggRanks produces.
func TestAggIndexInversePermuted(t *testing.T) {
	aggRanks := []int{5, 2, 7, 0} // 4 domains over 8 ranks
	aggOf := invertAggRanks(aggRanks, 8)
	p := collectivePlan{naggs: 4, commSize: 8, aggRanks: aggRanks, aggOf: aggOf}
	for a, r := range aggRanks {
		if p.aggIndex(r) != a {
			t.Errorf("aggIndex(%d) = %d, want %d", r, p.aggIndex(r), a)
		}
	}
	for _, r := range []int{1, 3, 4, 6} {
		if p.aggIndex(r) != -1 {
			t.Errorf("aggIndex(%d) = %d, want -1", r, p.aggIndex(r))
		}
	}
}

// Round windows must tile each domain exactly — every byte of [gmin, gmax)
// in exactly one (round, aggregator) window — at unaligned endpoints, with a
// staging buffer that does not divide the domain width, and with more
// aggregators than the range has stripes.
func TestWindowCoverage(t *testing.T) {
	const stripe = int64(256)
	for _, tc := range []struct {
		gmin, gmax int64
		naggs      int
		cbbuf      int64
	}{
		{100, 40*stripe + 17, 4, 1024},
		{100, 40*stripe + 17, 3, 1000},
		{0, 3 * stripe, 8, 100},
		{7, 140, 1, 4096},
	} {
		bounds := evenBounds(tc.gmin, tc.gmax, tc.naggs, stripe)
		p := collectivePlan{gmin: tc.gmin, gmax: tc.gmax, naggs: tc.naggs, bounds: bounds,
			cbbuf: tc.cbbuf, stripe: stripe, commSize: 8, rounds: roundsFor(bounds, tc.cbbuf)}
		covered := int64(0)
		prevEnd := tc.gmin
		for a := 0; a < p.naggs; a++ {
			for r := int64(0); r < p.rounds; r++ {
				lo, hi := p.window(a, r)
				if hi <= lo {
					continue
				}
				if lo != prevEnd {
					t.Fatalf("%+v: window (%d,%d) starts at %d, previous coverage ended at %d", tc, a, r, lo, prevEnd)
				}
				covered += hi - lo
				prevEnd = hi
			}
		}
		if prevEnd != tc.gmax || covered != tc.gmax-tc.gmin {
			t.Fatalf("%+v: windows cover [%d..%d) %d bytes, want [%d..%d) %d bytes",
				tc, tc.gmin, prevEnd, covered, tc.gmin, tc.gmax, tc.gmax-tc.gmin)
		}
	}
}

// No collective issues a round in which every aggregator's window is empty:
// the round count comes from the boundary table, never from a nominal
// stripe-rounded width the table does not reach. The cases are requests
// smaller than a stripe under a staging buffer smaller than a stripe — 140
// bytes through one aggregator, and 128 KiB over four (evenBounds hands it
// all to the first) — and the count is checked in the plan and in what the
// collective books.
func TestNoRoundWithEveryWindowEmpty(t *testing.T) {
	for _, tc := range []struct {
		off, n int64
		nodes  string
		rounds int64
	}{
		{7, 140, "1", 1},
		{0, 128 << 10, "4", 32},
		{100, 3 * 4096, "2", 3},
	} {
		fsys := testFS()
		info := mpi.NewInfo().Set("cb_buffer_size", "4096").Set("cb_nodes", tc.nodes)
		runWorld(t, 4, func(c *mpi.Comm) error {
			st := iostat.New()
			c.Proc().SetStats(st)
			f, err := Open(c, fsys, "tiny", ModeRdWr|ModeCreate, info)
			if err != nil {
				return err
			}
			// Rank r holds the r-th quarter of [off, off+n).
			lo, hi := tc.off+tc.n*int64(c.Rank())/4, tc.off+tc.n*int64(c.Rank()+1)/4
			plan, ok, err := f.collectivePlan([]pfs.Segment{{Off: lo, Len: hi - lo}}, nil, true)
			if err != nil || !ok {
				return fmt.Errorf("collectivePlan: ok=%v err=%v", ok, err)
			}
			if plan.rounds != tc.rounds {
				return fmt.Errorf("%+v: plan has %d rounds", tc, plan.rounds)
			}
			for r := int64(0); r < plan.rounds; r++ {
				busy := false
				for a := 0; a < plan.naggs; a++ {
					wlo, whi := plan.window(a, r)
					busy = busy || whi > wlo
				}
				if !busy {
					return fmt.Errorf("%+v: round %d of %d has nothing in any window", tc, r, plan.rounds)
				}
			}
			if err := f.WriteAtAll(lo, make([]byte, hi-lo)); err != nil {
				return err
			}
			if got := st.Get(iostat.IOTwoPhaseRounds); got != tc.rounds {
				return fmt.Errorf("%+v: the write booked %d rounds", tc, got)
			}
			return f.Close()
		})
	}
}

// A collective write has one aggregator per I/O server, a read one per rank.
// The case is one FLASH unknown on the Frost model: 8 ranks, 2 servers, a
// stripe-aligned range of ten stripes. The write cuts it into two five-stripe
// domains, so each server takes one request per domain instead of five; the
// read keeps five two-stripe domains (the other three aggregators idle).
func TestWritePlanHasOneAggregatorPerServer(t *testing.T) {
	cfg := pfs.DefaultConfig()
	cfg.NumServers = 2
	fsys := pfs.New(cfg)
	stripe := cfg.StripeSize
	gmin, gmax := 3*stripe, 13*stripe
	runWorld(t, 8, func(c *mpi.Comm) error {
		f, err := Open(c, fsys, "unknown", ModeRdWr|ModeCreate, nil)
		if err != nil {
			return err
		}
		lo, hi := gmin+(gmax-gmin)*int64(c.Rank())/8, gmin+(gmax-gmin)*int64(c.Rank()+1)/8
		for _, tc := range []struct {
			write  bool
			naggs  int
			widths []int64 // in stripes, empty domains included
			ranks  []int
		}{
			{true, 2, []int64{5, 5}, []int{0, 4}},
			{false, 8, []int64{2, 2, 2, 2, 2, 0, 0, 0}, []int{0, 1, 2, 3, 4, 5, 6, 7}},
		} {
			plan, ok, err := f.collectivePlan([]pfs.Segment{{Off: lo, Len: hi - lo}}, nil, tc.write)
			if err != nil || !ok {
				return fmt.Errorf("write=%v: collectivePlan ok=%v err=%v", tc.write, ok, err)
			}
			if plan.naggs != tc.naggs {
				return fmt.Errorf("write=%v: %d aggregators, want %d", tc.write, plan.naggs, tc.naggs)
			}
			checkBounds(t, fmt.Sprintf("write=%v", tc.write), plan.bounds, gmin, gmax, stripe, plan.naggs)
			for a, w := range tc.widths {
				if got := plan.boundary(a+1) - plan.boundary(a); got != w*stripe {
					return fmt.Errorf("write=%v: domain %d is %d bytes, want %d stripes", tc.write, a, got, w)
				}
				if plan.aggRank(a) != tc.ranks[a] {
					return fmt.Errorf("write=%v: domain %d on rank %d, want %d", tc.write, a, plan.aggRank(a), tc.ranks[a])
				}
			}
		}
		return f.Close()
	})
}
