// Collective-reduction tests live in an external test package so they can
// drive real mpi ranks (mpi imports iostat; the reverse would be a cycle).
package iostat_test

import (
	"sync"
	"testing"

	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
)

// TestReduceAcrossRanks runs a real communicator where every rank
// accumulates rank-dependent counts — from several goroutines per rank, so
// the atomic counters are exercised under -race — then reduces to rank 0.
func TestReduceAcrossRanks(t *testing.T) {
	const nprocs = 8
	var (
		mu  sync.Mutex
		sum *iostat.Summary
	)
	err := mpi.Run(nprocs, mpi.DefaultNet(), func(c *mpi.Comm) error {
		st := iostat.New()
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
		if s := iostat.Reduce(c, st); s != nil {
			mu.Lock()
			sum = s
			mu.Unlock()
			if c.Rank() != 0 {
				t.Errorf("rank %d got a non-nil summary", c.Rank())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum == nil {
		t.Fatal("rank 0 got no summary")
	}
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
	if got := sum.Mean(iostat.PfsWriteCalls); got != 100 {
		t.Fatalf("Mean calls = %v, want 100", got)
	}
	if kc := sum.KeyCounters(); kc["pfs_bytes_written"] != wantSum {
		t.Fatalf("KeyCounters = %d", kc["pfs_bytes_written"])
	}
}

// TestReduceNilStats checks a rank with stats disabled contributes zeros
// rather than crashing — the zero-overhead-off contract.
func TestReduceNilStats(t *testing.T) {
	var sum *iostat.Summary
	err := mpi.Run(4, mpi.DefaultNet(), func(c *mpi.Comm) error {
		var st *iostat.Stats
		if c.Rank()%2 == 0 {
			st = iostat.New()
			st.Add(iostat.MPIMsgsSent, 5)
		}
		if s := iostat.Reduce(c, st); s != nil {
			sum = s
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum == nil || sum.Sum[iostat.MPIMsgsSent] != 10 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.Min[iostat.MPIMsgsSent] != 0 || sum.Max[iostat.MPIMsgsSent] != 5 {
		t.Fatalf("min/max = %d/%d", sum.Min[iostat.MPIMsgsSent], sum.Max[iostat.MPIMsgsSent])
	}
}
