package mpiio

import (
	"fmt"
	"testing"

	"pnetcdf/internal/mpi"
	"pnetcdf/internal/pfs"
)

// resolveHints must clamp or ignore out-of-range values: more aggregators
// than ranks clamps to the communicator size, and non-positive or
// sub-minimum buffer sizes keep the defaults. Without cb_nodes a write has
// one aggregator per I/O server, no more than there are ranks, and a read at
// most one per rank, its count chosen per request (CBNodesGiven false);
// cb_nodes sets both, and is marked given even when it equals the ranks.
func TestResolveHintsClamping(t *testing.T) {
	err := mpi.Run(4, mpi.DefaultNet(), func(c *mpi.Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		const servers = 2
		def := resolveHints(c, nil, servers)
		if def.CBNodes != c.Size() || def.CBWriteNodes != servers || def.CBNodesGiven {
			t.Errorf("default CBNodes, CBWriteNodes, CBNodesGiven = %d, %d, %v; want %d, %d, false",
				def.CBNodes, def.CBWriteNodes, def.CBNodesGiven, c.Size(), servers)
		}
		for _, factor := range []int{1, 4, 12} {
			if h := resolveHints(c, nil, factor); h.CBWriteNodes != min(c.Size(), factor) || h.CBNodes != c.Size() {
				t.Errorf("%d servers, %d ranks: CBNodes, CBWriteNodes = %d, %d; want %d, %d",
					factor, c.Size(), h.CBNodes, h.CBWriteNodes, c.Size(), min(c.Size(), factor))
			}
		}

		h := resolveHints(c, mpi.NewInfo().Set("cb_nodes", "64"), servers)
		if h.CBNodes != c.Size() || h.CBWriteNodes != c.Size() || !h.CBNodesGiven {
			t.Errorf("cb_nodes=64 on %d ranks: CBNodes, CBWriteNodes = %d, %d; want both clamped to %d",
				c.Size(), h.CBNodes, h.CBWriteNodes, c.Size())
		}

		for _, n := range []int{1, 3, c.Size()} {
			h = resolveHints(c, mpi.NewInfo().Set("cb_nodes", fmt.Sprint(n)), servers)
			if h.CBNodes != n || h.CBWriteNodes != n || !h.CBNodesGiven {
				t.Errorf("cb_nodes=%d: CBNodes, CBWriteNodes, CBNodesGiven = %d, %d, %v", n, h.CBNodes, h.CBWriteNodes, h.CBNodesGiven)
			}
		}

		for _, bad := range []string{"0", "-4", "junk"} {
			h = resolveHints(c, mpi.NewInfo().Set("cb_nodes", bad), servers)
			if h != def {
				t.Errorf("cb_nodes=%q: CBNodes, CBWriteNodes = %d, %d; want defaults %d, %d",
					bad, h.CBNodes, h.CBWriteNodes, def.CBNodes, def.CBWriteNodes)
			}
		}

		for _, bad := range []string{"0", "-1", "4095", "junk"} {
			h = resolveHints(c, mpi.NewInfo().
				Set("cb_buffer_size", bad).
				Set("ind_rd_buffer_size", bad).
				Set("ind_wr_buffer_size", bad), servers)
			if h.CBBufferSize != def.CBBufferSize {
				t.Errorf("cb_buffer_size=%q: %d, want default %d", bad, h.CBBufferSize, def.CBBufferSize)
			}
			if h.IndRdBufferSize != def.IndRdBufferSize || h.IndWrBufferSize != def.IndWrBufferSize {
				t.Errorf("ind buffer size %q not ignored: rd=%d wr=%d", bad, h.IndRdBufferSize, h.IndWrBufferSize)
			}
		}

		h = resolveHints(c, mpi.NewInfo().Set("cb_buffer_size", "4096"), servers)
		if h.CBBufferSize != 4096 {
			t.Errorf("cb_buffer_size=4096: %d", h.CBBufferSize)
		}

		// Hints are advisory: a key this library does not know changes
		// nothing, alone or beside known ones. cb_partition and
		// cb_partition_buckets are keys an older version acted on, so job
		// scripts still set them.
		for _, unknown := range [][2]string{{"no_such_hint", "1"}, {"cb_partition", "balanced"}, {"cb_partition_buckets", "16"}} {
			if h = resolveHints(c, mpi.NewInfo().Set(unknown[0], unknown[1]), servers); h != def {
				t.Errorf("%s=%s changed the resolved set: %+v, want %+v", unknown[0], unknown[1], h, def)
			}
			known := mpi.NewInfo().Set("cb_nodes", "2").Set("cb_buffer_size", "8192")
			want := resolveHints(c, known, servers)
			if h = resolveHints(c, known.Set(unknown[0], unknown[1]), servers); h != want {
				t.Errorf("%s=%s beside cb_nodes and cb_buffer_size: %+v, want %+v", unknown[0], unknown[1], h, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The file domains of a collective plan must partition [gmin, gmax)
// exactly: no overlap (the same bytes written by two aggregators) and no
// gap. Regression test for the unaligned-gmax case, where the last data
// boundary used to clamp to gmax on one side but align down on the other,
// handing the tail stripe to two aggregators.
func TestCollectivePlanDomainsPartition(t *testing.T) {
	cases := []struct {
		gmin, gmax int64
		naggs      int
		stripe     int64
	}{
		// gmax unaligned, even width overshoots gmax for the last aggregators.
		{1492, 2643408, 8, 262144},
		// aligned everything
		{0, 1 << 20, 4, 262144},
		// single aggregator
		{7, 1000, 1, 256},
		// tiny range, many aggregators: most get empty windows
		{100, 300, 6, 256},
	}
	for ci, tc := range cases {
		p := collectivePlan{naggs: tc.naggs, bounds: evenBounds(nil, tc.gmin, tc.gmax, tc.naggs, tc.stripe)}
		prevHi := tc.gmin
		covered := int64(0)
		for a := 0; a < p.naggs; a++ {
			lo, hi := p.boundary(a), p.boundary(a+1)
			if lo != prevHi {
				t.Errorf("case %d: aggregator %d starts at %d, previous ended at %d", ci, a, lo, prevHi)
			}
			if hi < lo || hi > tc.gmax {
				t.Errorf("case %d: aggregator %d domain [%d,%d) out of range", ci, a, lo, hi)
			}
			covered += hi - lo
			prevHi = hi
		}
		if prevHi != tc.gmax {
			t.Errorf("case %d: domains end at %d, want gmax %d", ci, prevHi, tc.gmax)
		}
		if covered != tc.gmax-tc.gmin {
			t.Errorf("case %d: domains cover %d bytes, want %d", ci, covered, tc.gmax-tc.gmin)
		}
	}
}

// Info reports the striping of the file system the file is on, as
// MPI_File_get_info does under ROMIO: striping_unit and striping_factor are
// there whatever the caller passed, a value the caller supplied for them is
// advice this file system cannot take, and the caller's other hints — and the
// caller's own Info object — are kept as given.
func TestInfoReportsStriping(t *testing.T) {
	cfg := pfs.BlueHorizon()
	cfg.StripeSize, cfg.NumServers = 64<<10, 5
	fsys := pfs.New(cfg)
	given := mpi.NewInfo().Set("striping_unit", "12345").Set("striping_factor", "99").Set("cb_nodes", "2")
	runWorld(t, 2, func(c *mpi.Comm) error {
		for _, info := range []*mpi.Info{nil, given} {
			f, err := Open(c, fsys, "striped", ModeRdWr|ModeCreate, info)
			if err != nil {
				return err
			}
			if unit, factor := f.Info().GetInt("striping_unit", -1), f.Info().GetInt("striping_factor", -1); unit != 64<<10 || factor != 5 {
				return fmt.Errorf("Info reports striping_unit %d, striping_factor %d; the file system has %d and %d", unit, factor, 64<<10, 5)
			}
			if _, ok := f.Info().Get("cb_nodes"); ok != (info != nil) {
				return fmt.Errorf("cb_nodes present in Info: %v, given: %v", ok, info != nil)
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		if v, _ := given.Get("striping_unit"); v != "12345" {
			return fmt.Errorf("Open rewrote the caller's Info: striping_unit = %q", v)
		}
		return nil
	})
}
