package mpiio

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pnetcdf/internal/fault"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpitype"
)

// The failover matrix: kill one rank at each crash point of the round loop,
// aggregator or not, in a round whose aggregator request is asynchronous and
// in the one that is synchronous, during collective writes and reads. The
// invariants under test are the acceptance criteria of DESIGN.md §8:
// no survivor hangs, every survivor returns the same error, the file is
// byte-identical to an undisturbed run everywhere outside the dead rank's
// exclusive data, and a reported DegradedError names only regions inside
// the dead rank's share.

const (
	ftioTimeout = 15 * time.Millisecond
	ftioRegion  = int64(256 << 10) // bytes per rank: 8 rounds of 64 KiB per domain
	ftioProcs   = 4
)

// ftioHints forces a deterministic multi-round two-phase shape: two
// aggregators at even ranks 0 and 2, 64 KiB rounds.
func ftioHints() *mpi.Info {
	info := mpi.NewInfo()
	info.Set("cb_buffer_size", "65536")
	info.Set("cb_nodes", "2")
	info.Set("cb_partition", "even")
	return info
}

// ftioPattern is rank r's payload: deterministic, distinct per rank and
// offset, never zero (so unwritten file bytes are detectable).
func ftioPattern(rank int, n int64) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(1 + (rank*37+i)%251)
	}
	return buf
}

// ftioResult is one survivor's view of the failed collective.
type ftioResult struct {
	err      error
	detected int64
	shrinks  int64
	failover int64
	degraded int64
}

// runFTWrite runs an n-rank collective write of disjoint per-rank regions
// with victim killed at (point, occurrence), returning the file image and
// the survivors' results indexed by original rank.
func runFTWrite(t *testing.T, victim int, point string, occurrence int64) ([]byte, map[int]ftioResult) {
	t.Helper()
	fsys := testFS()
	inj := fault.New(fault.Config{Seed: 1})
	inj.KillRankAt(victim, point, occurrence)
	fsys.SetFault(inj)
	var mu sync.Mutex
	results := map[int]ftioResult{}
	err := mpi.RunFT(ftioProcs, mpi.DefaultNet(), ftioTimeout, func(c *mpi.Comm) error {
		rank := c.Rank()
		c.Proc().SetStats(iostat.New())
		f, err := Open(c, fsys, "ftw", ModeRdWr|ModeCreate, ftioHints())
		if err != nil {
			return err
		}
		if err := f.SetView(int64(rank)*ftioRegion, mpitype.Contig(ftioRegion)); err != nil {
			return err
		}
		werr := f.WriteAtAll(0, ftioPattern(rank, ftioRegion))
		st := c.Proc().Stats()
		mu.Lock()
		results[rank] = ftioResult{
			err:      werr,
			detected: st.Get(iostat.FTFailuresDetected),
			shrinks:  st.Get(iostat.FTCommShrinks),
			failover: st.Get(iostat.FTFailoverRounds),
			degraded: st.Get(iostat.FTDegradedCompletions),
		}
		mu.Unlock()
		return f.Close()
	})
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	pf, _, err := fsys.Open("ftw", 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	img := make([]byte, ftioProcs*ftioRegion)
	if _, err := pf.ReadAt(0, img[:pf.Size()], 0); err != nil {
		t.Fatalf("image read: %v", err)
	}
	return img, results
}

// checkFTWrite verifies the survivor invariants on one matrix cell.
func checkFTWrite(t *testing.T, img []byte, results map[int]ftioResult, victim int) {
	t.Helper()
	if len(results) != ftioProcs-1 {
		t.Fatalf("%d survivors reported, want %d", len(results), ftioProcs-1)
	}
	if _, ok := results[victim]; ok {
		t.Fatalf("victim %d returned from the collective", victim)
	}
	// Same outcome everywhere.
	var ref string
	var refSet bool
	for rank, res := range results {
		s := fmt.Sprintf("%v", res.err)
		if !refSet {
			ref, refSet = s, true
		} else if s != ref {
			t.Fatalf("rank %d outcome %q differs from %q", rank, s, ref)
		}
		if res.err != nil {
			de, ok := AsDegraded(res.err)
			if !ok {
				t.Fatalf("rank %d: %v, want nil or DegradedError", rank, res.err)
			}
			if len(de.Failed) != 1 || de.Failed[0] != victim {
				t.Fatalf("rank %d: degraded failed set %v, want [%d]", rank, de.Failed, victim)
			}
			vLo, vHi := int64(victim)*ftioRegion, int64(victim+1)*ftioRegion
			for _, x := range de.Missing {
				if x.Off < vLo || x.Off+x.Len > vHi {
					t.Fatalf("rank %d: missing extent %+v outside victim region [%d,%d)", rank, x, vLo, vHi)
				}
			}
		}
		if res.detected == 0 {
			t.Errorf("rank %d: ft_failures_detected = 0", rank)
		}
		if res.shrinks == 0 {
			t.Errorf("rank %d: ft_comm_shrinks = 0", rank)
		}
		if res.failover == 0 {
			t.Errorf("rank %d: ft_failover_rounds = 0", rank)
		}
	}
	// Survivor regions byte-identical to an undisturbed run; the victim's
	// region holds either its data (rounds that landed before the crash or
	// that another rank's replay covered) or still-unwritten zeros inside
	// the reported missing set.
	missing := map[int64]bool{}
	for _, res := range results {
		if de, ok := AsDegraded(res.err); ok {
			for _, x := range de.Missing {
				for o := x.Off; o < x.Off+x.Len; o++ {
					missing[o] = true
				}
			}
		}
		break
	}
	for rank := 0; rank < ftioProcs; rank++ {
		want := ftioPattern(rank, ftioRegion)
		base := int64(rank) * ftioRegion
		got := img[base : base+ftioRegion]
		if rank != victim {
			if !bytes.Equal(got, want) {
				t.Fatalf("survivor %d region differs from undisturbed run", rank)
			}
			continue
		}
		for i := range got {
			switch {
			case got[i] == want[i]:
			case got[i] == 0 && missing[base+int64(i)]:
			default:
				t.Fatalf("victim byte %d = %#x: neither its data (%#x) nor a reported-missing zero",
					base+int64(i), got[i], want[i])
			}
		}
	}
}

func TestFTKillWriteFailover(t *testing.T) {
	// Rank 1 is no aggregator, rank 2 is one. Each domain takes 8 rounds, so
	// occurrence 7 of a point is the last round — the one whose write is
	// synchronous. after_issue is passed only by aggregators, once per
	// round they have something to write.
	cases := []struct {
		name       string
		victim     int
		point      string
		occurrence int64
	}{
		{"before_pack/r1", 1, fault.KillBeforePack, 2},
		{"before_pack/r1/last-round", 1, fault.KillBeforePack, 7},
		{"before_pack/agg2", 2, fault.KillBeforePack, 4},
		{"mid_exchange/r1", 1, fault.KillMidExchange, 2},
		{"mid_exchange/agg2", 2, fault.KillMidExchange, 0},
		{"mid_exchange/agg2/last-round", 2, fault.KillMidExchange, 7},
		{"after_issue/agg2", 2, fault.KillAfterIssue, 2},
		{"after_issue/agg2/last-round", 2, fault.KillAfterIssue, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img, results := runFTWrite(t, tc.victim, tc.point, tc.occurrence)
			checkFTWrite(t, img, results, tc.victim)
		})
	}
}

// TestFTKillReadFailover: reads recover fully — after the failover every
// survivor's buffer matches the file exactly, with no degraded error.
func TestFTKillReadFailover(t *testing.T) {
	// Occurrence 0 is the first round — the one whose coverage read is
	// synchronous.
	cases := []struct {
		name       string
		victim     int
		point      string
		occurrence int64
	}{
		{"before_pack/r1", 1, fault.KillBeforePack, 2},
		{"before_pack/agg2/first-round", 2, fault.KillBeforePack, 0},
		{"mid_exchange/r1/first-round", 1, fault.KillMidExchange, 0},
		{"mid_exchange/agg2", 2, fault.KillMidExchange, 1},
		{"after_issue/agg2", 2, fault.KillAfterIssue, 2},
		{"after_issue/agg2/first-round", 2, fault.KillAfterIssue, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fsys := testFS()
			// Seed the file undisturbed, then kill during the read-back.
			runWorld(t, ftioProcs, func(c *mpi.Comm) error {
				f, err := Open(c, fsys, "ftr", ModeRdWr|ModeCreate, ftioHints())
				if err != nil {
					return err
				}
				if err := f.SetView(int64(c.Rank())*ftioRegion, mpitype.Contig(ftioRegion)); err != nil {
					return err
				}
				if err := f.WriteAtAll(0, ftioPattern(c.Rank(), ftioRegion)); err != nil {
					return err
				}
				return f.Close()
			})
			inj := fault.New(fault.Config{Seed: 1})
			inj.KillRankAt(tc.victim, tc.point, tc.occurrence)
			fsys.SetFault(inj)
			var mu sync.Mutex
			got := map[int][]byte{}
			errs := map[int]error{}
			err := mpi.RunFT(ftioProcs, mpi.DefaultNet(), ftioTimeout, func(c *mpi.Comm) error {
				rank := c.Rank()
				c.Proc().SetStats(iostat.New())
				f, err := Open(c, fsys, "ftr", ModeRdOnly, ftioHints())
				if err != nil {
					return err
				}
				if err := f.SetView(int64(rank)*ftioRegion, mpitype.Contig(ftioRegion)); err != nil {
					return err
				}
				buf := make([]byte, ftioRegion)
				rerr := f.ReadAtAll(0, buf)
				mu.Lock()
				got[rank] = buf
				errs[rank] = rerr
				mu.Unlock()
				return f.Close()
			})
			if err != nil {
				t.Fatalf("world: %v", err)
			}
			if len(got) != ftioProcs-1 {
				t.Fatalf("%d survivors, want %d", len(got), ftioProcs-1)
			}
			for rank, rerr := range errs {
				if rerr != nil {
					t.Fatalf("rank %d: read failover returned %v, want nil (full recovery)", rank, rerr)
				}
				if !bytes.Equal(got[rank], ftioPattern(rank, ftioRegion)) {
					t.Fatalf("rank %d: read-back differs after failover", rank)
				}
			}
		})
	}
}

// TestFTCleanRunByteIdentical: the detector being armed must not change a
// single output byte or trigger any FT machinery on a fault-free run.
func TestFTCleanRunByteIdentical(t *testing.T) {
	run := func(detector bool) []byte {
		fsys := testFS()
		fn := func(c *mpi.Comm) error {
			c.Proc().SetStats(iostat.New())
			f, err := Open(c, fsys, "clean", ModeRdWr|ModeCreate, ftioHints())
			if err != nil {
				return err
			}
			if err := f.SetView(int64(c.Rank())*ftioRegion, mpitype.Contig(ftioRegion)); err != nil {
				return err
			}
			if err := f.WriteAtAll(0, ftioPattern(c.Rank(), ftioRegion)); err != nil {
				return err
			}
			for _, ctr := range []iostat.Counter{
				iostat.FTFailuresDetected, iostat.FTCommShrinks,
				iostat.FTFailoverRounds, iostat.FTDegradedCompletions,
			} {
				if v := c.Proc().Stats().Get(ctr); v != 0 {
					return fmt.Errorf("clean run: %s = %d", ctr, v)
				}
			}
			return f.Close()
		}
		var err error
		if detector {
			err = mpi.RunFT(ftioProcs, mpi.DefaultNet(), ftioTimeout, fn)
		} else {
			err = mpi.Run(ftioProcs, mpi.DefaultNet(), fn)
		}
		if err != nil {
			t.Fatalf("world: %v", err)
		}
		pf, _, err := fsys.Open("clean", 0)
		if err != nil {
			t.Fatal(err)
		}
		img := make([]byte, pf.Size())
		if _, err := pf.ReadAt(0, img, 0); err != nil {
			t.Fatal(err)
		}
		return img
	}
	if !bytes.Equal(run(false), run(true)) {
		t.Fatal("detector changed output bytes on a fault-free run")
	}
}

// TestFTWithoutDetectorStillAgrees: without PNETCDF_FT_TIMEOUT a kill run
// would hang (real-MPI semantics), so this only checks the plumbing stays
// off: Revoked() is false and the injector alone does nothing when no kill
// point is reached by the armed rank.
func TestFTWithoutDetectorStillAgrees(t *testing.T) {
	fsys := testFS()
	inj := fault.New(fault.Config{Seed: 1})
	// Armed for a rank that never exists in this world: never fires.
	inj.KillRank(17, fault.KillBeforePack)
	fsys.SetFault(inj)
	runWorld(t, 2, func(c *mpi.Comm) error {
		f, err := Open(c, fsys, "nodet", ModeRdWr|ModeCreate, ftioHints())
		if err != nil {
			return err
		}
		if err := f.SetView(int64(c.Rank())*4096, mpitype.Contig(4096)); err != nil {
			return err
		}
		if err := f.WriteAtAll(0, ftioPattern(c.Rank(), 4096)); err != nil {
			return err
		}
		if c.Revoked() {
			return errors.New("revoked without any death")
		}
		return f.Close()
	})
}

// TestExtentHelpers pins the interval algebra the failover's missing-set
// computation rests on.
func TestExtentHelpers(t *testing.T) {
	merged := mergeExtents([]Extent{{Off: 30, Len: 10}, {Off: 0, Len: 10}, {Off: 10, Len: 5}, {Off: 12, Len: 8}})
	want := []Extent{{Off: 0, Len: 20}, {Off: 30, Len: 10}}
	if fmt.Sprint(merged) != fmt.Sprint(want) {
		t.Fatalf("mergeExtents = %v, want %v", merged, want)
	}
	miss := subtractExtents(
		[]Extent{{Off: 0, Len: 100}, {Off: 200, Len: 50}},
		[]Extent{{Off: 10, Len: 20}, {Off: 50, Len: 60}, {Off: 240, Len: 100}},
	)
	want = []Extent{{Off: 0, Len: 10}, {Off: 30, Len: 20}, {Off: 200, Len: 40}}
	if fmt.Sprint(miss) != fmt.Sprint(want) {
		t.Fatalf("subtractExtents = %v, want %v", miss, want)
	}
	if got := subtractExtents([]Extent{{Off: 5, Len: 10}}, nil); fmt.Sprint(got) != fmt.Sprint([]Extent{{Off: 5, Len: 10}}) {
		t.Fatalf("subtract from nil cover = %v", got)
	}
	if got := subtractExtents(nil, []Extent{{Off: 0, Len: 10}}); len(got) != 0 {
		t.Fatalf("subtract of nil = %v", got)
	}
}
