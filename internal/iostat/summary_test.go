// The summary tests live in an external test package so they can drive real
// mpi ranks (mpi imports iostat; the reverse would be a cycle).
package iostat_test

import (
	"sync"
	"testing"

	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
)

// TestReduceAcrossRanks reduces a run's counters with Summarize: on a real
// communicator every rank accumulates rank-dependent counts in a slot of its
// own — from several goroutines per rank, so the atomic counters are
// exercised under -race — and the slots are folded once mpi.Run has
// returned.
func TestReduceAcrossRanks(t *testing.T) {
	const nprocs = 8
	slots := make([]*iostat.Stats, nprocs)
	err := mpi.Run(nprocs, mpi.DefaultNet(), func(c *mpi.Comm) error {
		st := iostat.New()
		slots[c.Rank()] = st
		c.Proc().SetStats(st)
		// Each rank r adds r+1 bytes 100 times, split across 4 goroutines.
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					st.Add(iostat.PfsBytesWritten, int64(c.Rank()+1))
					st.Add(iostat.PfsWriteCalls, 1)
				}
			}()
		}
		wg.Wait()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := iostat.Summarize(slots)
	if sum.Ranks != nprocs {
		t.Fatalf("Ranks = %d", sum.Ranks)
	}
	// sum over r of 100*(r+1) = 100 * n(n+1)/2.
	wantSum := int64(100 * nprocs * (nprocs + 1) / 2)
	if got := sum.Sum[iostat.PfsBytesWritten]; got != wantSum {
		t.Fatalf("Sum = %d, want %d", got, wantSum)
	}
	if got := sum.Min[iostat.PfsBytesWritten]; got != 100 {
		t.Fatalf("Min = %d, want 100 (rank 0)", got)
	}
	if got := sum.Max[iostat.PfsBytesWritten]; got != 100*nprocs {
		t.Fatalf("Max = %d, want %d (last rank)", got, 100*nprocs)
	}
	if got := sum.Sum[iostat.PfsWriteCalls]; got != 100*nprocs {
		t.Fatalf("Sum calls = %v, want %d (100 a rank)", got, 100*nprocs)
	}
	if kc := sum.KeyCounters(); kc["pfs_bytes_written"] != wantSum {
		t.Fatalf("KeyCounters = %d", kc["pfs_bytes_written"])
	}
}

// TestReduceNilStats checks a rank with stats disabled contributes zeros
// rather than crashing — the zero-overhead-off contract — and still counts
// as a rank.
func TestReduceNilStats(t *testing.T) {
	slots := make([]*iostat.Stats, 4)
	for r := range slots {
		if r%2 == 0 {
			slots[r] = iostat.New()
			slots[r].Add(iostat.MPIMsgsSent, 5)
		}
	}
	sum := iostat.Summarize(slots)
	if sum.Ranks != 4 || sum.Sum[iostat.MPIMsgsSent] != 10 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.Min[iostat.MPIMsgsSent] != 0 || sum.Max[iostat.MPIMsgsSent] != 5 {
		t.Fatalf("min/max = %d/%d", sum.Min[iostat.MPIMsgsSent], sum.Max[iostat.MPIMsgsSent])
	}
}
