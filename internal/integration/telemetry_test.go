package integration

import (
	"testing"

	"pnetcdf/internal/bench"
	"pnetcdf/internal/flash"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/span"
)

// TestSpansMatchCounters holds the two telemetry surfaces to one account:
// on an 8-rank FLASH checkpoint written and read back with counters and
// spans both on and no faults, every rank's pfs_write spans number its
// PfsWriteCalls and sum to its PfsBytesWritten, and likewise for reads. A
// request that one surface sees and the other misses fails here.
func TestSpansMatchCounters(t *testing.T) {
	const nranks = 8
	mach := bench.ASCIFrost()
	fsys := mach.NewFS()
	cfg := flash.Config{NXB: 8, NYB: 8, NZB: 8, NGuard: 4, NVar: 6, NPlotVar: 2, BlocksPerProc: 4}
	stats := make([]*iostat.Stats, nranks)
	recs := make([]*span.Recorder, nranks)
	err := mpi.Run(nranks, mach.Net, func(c *mpi.Comm) error {
		p := c.Proc()
		stats[c.Rank()], recs[c.Rank()] = iostat.New(), span.NewRecorder(c.Rank(), p.Clock)
		p.SetStats(stats[c.Rank()])
		p.SetSpans(recs[c.Rank()])
		if _, err := flash.WriteCheckpointPnetCDF(c, fsys, "chk.nc", cfg, nil); err != nil {
			return err
		}
		_, err := flash.ReadCheckpointPnetCDF(c, fsys, "chk.nc", cfg, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var writes, reads int64
	for r := range recs {
		if d := recs[r].Dropped(); d != 0 {
			t.Fatalf("rank %d dropped %d spans", r, d)
		}
		n, bytes := map[string]int64{}, map[string]int64{}
		for _, s := range recs[r].Spans() {
			n[s.Phase]++
			bytes[s.Phase] += s.Bytes
		}
		st := stats[r]
		for _, c := range []struct {
			phase        string
			calls, moved iostat.Counter
		}{
			{span.PFSWrite, iostat.PfsWriteCalls, iostat.PfsBytesWritten},
			{span.PFSRead, iostat.PfsReadCalls, iostat.PfsBytesRead},
		} {
			if n[c.phase] != st.Get(c.calls) || bytes[c.phase] != st.Get(c.moved) {
				t.Errorf("rank %d: %d %s spans of %d bytes, counters say %d calls of %d bytes",
					r, n[c.phase], c.phase, bytes[c.phase], st.Get(c.calls), st.Get(c.moved))
			}
		}
		writes += n[span.PFSWrite]
		reads += n[span.PFSRead]
	}
	if writes == 0 || reads == 0 {
		t.Fatalf("the run made %d pfs writes and %d reads, want both", writes, reads)
	}
}
