package mpiio

import (
	"fmt"
	"testing"

	"pnetcdf/internal/mpi"
	"pnetcdf/internal/pfs"
)

// resolveHints must clamp or ignore out-of-range values: more aggregators
// than ranks clamps to the communicator size, and non-positive or
// sub-minimum buffer sizes keep the defaults. Without cb_nodes a read has an
// aggregator on every rank and a write one per I/O server, no more than there
// are ranks; cb_nodes sets both.
func TestResolveHintsClamping(t *testing.T) {
	err := mpi.Run(4, mpi.DefaultNet(), func(c *mpi.Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		const servers = 2
		def := resolveHints(c, nil, servers)
		if def.CBNodes != c.Size() || def.CBWriteNodes != servers {
			t.Errorf("default CBNodes, CBWriteNodes = %d, %d; want %d, %d", def.CBNodes, def.CBWriteNodes, c.Size(), servers)
		}
		for _, factor := range []int{1, 4, 12} {
			if h := resolveHints(c, nil, factor); h.CBWriteNodes != min(c.Size(), factor) || h.CBNodes != c.Size() {
				t.Errorf("%d servers, %d ranks: CBNodes, CBWriteNodes = %d, %d; want %d, %d",
					factor, c.Size(), h.CBNodes, h.CBWriteNodes, c.Size(), min(c.Size(), factor))
			}
		}

		h := resolveHints(c, mpi.NewInfo().Set("cb_nodes", "64"), servers)
		if h.CBNodes != c.Size() || h.CBWriteNodes != c.Size() {
			t.Errorf("cb_nodes=64 on %d ranks: CBNodes, CBWriteNodes = %d, %d; want both clamped to %d",
				c.Size(), h.CBNodes, h.CBWriteNodes, c.Size())
		}

		for _, n := range []int{1, 3} {
			h = resolveHints(c, mpi.NewInfo().Set("cb_nodes", fmt.Sprint(n)), servers)
			if h.CBNodes != n || h.CBWriteNodes != n {
				t.Errorf("cb_nodes=%d: CBNodes, CBWriteNodes = %d, %d", n, h.CBNodes, h.CBWriteNodes)
			}
		}

		for _, bad := range []string{"0", "-4", "junk"} {
			h = resolveHints(c, mpi.NewInfo().Set("cb_nodes", bad), servers)
			if h.CBNodes != def.CBNodes || h.CBWriteNodes != def.CBWriteNodes {
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
		// nothing.
		if h = resolveHints(c, mpi.NewInfo().Set("no_such_hint", "1"), servers); h != def {
			t.Errorf("an unknown hint changed the resolved set: %+v, want %+v", h, def)
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
	cases := []collectivePlan{
		// gmax unaligned, even width overshoots gmax for the last aggregators.
		{gmin: 1492, gmax: 2643408, naggs: 8, stripe: 262144, cbbuf: 16 << 20, commSize: 8},
		// aligned everything
		{gmin: 0, gmax: 1 << 20, naggs: 4, stripe: 262144, cbbuf: 16 << 20, commSize: 4},
		// single aggregator
		{gmin: 7, gmax: 1000, naggs: 1, stripe: 256, cbbuf: 4096, commSize: 3},
		// tiny range, many aggregators: most get empty windows
		{gmin: 100, gmax: 300, naggs: 6, stripe: 256, cbbuf: 4096, commSize: 6},
	}
	for ci, p := range cases {
		p.bounds = evenBounds(p.gmin, p.gmax, p.naggs, p.stripe)
		prevHi := p.gmin
		covered := int64(0)
		for a := 0; a < p.naggs; a++ {
			lo, hi := p.boundary(a), p.boundary(a+1)
			if lo != prevHi {
				t.Errorf("case %d: aggregator %d starts at %d, previous ended at %d", ci, a, lo, prevHi)
			}
			if hi < lo || hi > p.gmax {
				t.Errorf("case %d: aggregator %d domain [%d,%d) out of range", ci, a, lo, hi)
			}
			covered += hi - lo
			prevHi = hi
		}
		if prevHi != p.gmax {
			t.Errorf("case %d: domains end at %d, want gmax %d", ci, prevHi, p.gmax)
		}
		if covered != p.gmax-p.gmin {
			t.Errorf("case %d: domains cover %d bytes, want %d", ci, covered, p.gmax-p.gmin)
		}
	}
}

// Info reports the striping of the file system the file is on, as
// MPI_File_get_info does under ROMIO: striping_unit and striping_factor are
// there whatever the caller passed, a value the caller supplied for them is
// advice this file system cannot take, and the caller's other hints — and the
// caller's own Info object — are kept as given.
func TestInfoReportsStriping(t *testing.T) {
	cfg := pfs.DefaultConfig()
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
