package mpiio

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"pnetcdf/internal/fault"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/pfs"
)

// The failover matrix: kill one rank at each crash point of the round loop,
// aggregator or not, in a round whose aggregator request is settled before
// the next round's and in the last one, during collective writes and
// reads. The
// invariants under test are the acceptance criteria of DESIGN.md §8:
// no survivor hangs, every survivor returns the same error, the file is
// byte-identical to an undisturbed run everywhere outside the dead rank's
// exclusive data, and a reported DegradedError names only regions inside
// the dead rank's share.

const (
	ftioRegion = int64(256 << 10) // bytes per rank: 8 rounds of 64 KiB per domain
	ftioProcs  = 4
)

// ftioHints forces a deterministic multi-round two-phase shape: two
// aggregators at even ranks 0 and 2, 64 KiB rounds.
func ftioHints() *mpi.Info {
	info := mpi.NewInfo()
	info.Set("cb_buffer_size", "65536")
	info.Set("cb_nodes", "2")
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
	clock    float64 // the rank's virtual time when the collective returned
	detected int64
	shrinks  int64
	failover int64
	degraded int64
}

// stridedMem is a Source and Sink over memory that holds the request in runs
// of stridedRun bytes with a gap after each: a replay that resumes inside a
// run asks for a piece that starts there.
type stridedMem []byte

const stridedRun, stridedGap = 300, 17

// stridedAt is where the request's byte pos sits in strided memory.
func stridedAt(pos int64) int64 {
	return pos/stridedRun*(stridedRun+stridedGap) + pos%stridedRun
}

func (m stridedMem) Fill(dst []byte, pos int64) {
	for len(dst) > 0 {
		i := stridedAt(pos)
		n := copy(dst, m[i:i+stridedRun-pos%stridedRun])
		dst, pos = dst[n:], pos+int64(n)
	}
}

func (m stridedMem) Drain(pos int64, src []byte) {
	for len(src) > 0 {
		i := stridedAt(pos)
		n := copy(m[i:i+stridedRun-pos%stridedRun], src)
		src, pos = src[n:], pos+int64(n)
	}
}

// newStridedMem lays lin out in strided memory; linear reads it back.
func newStridedMem(lin []byte) stridedMem {
	m := make(stridedMem, stridedAt(int64(len(lin)))+stridedRun)
	m.Drain(0, lin)
	return m
}

func (m stridedMem) linear(n int64) []byte {
	lin := make([]byte, n)
	m.Fill(lin, 0)
	return lin
}

// runFTWrite runs an n-rank collective write of disjoint per-rank regions
// with victim killed at (point, occurrence), returning the file image and
// the survivors' results indexed by original rank. strided writes from
// strided memory through WriteAtAllFrom.
func runFTWrite(t *testing.T, victim int, point string, occurrence int64, strided bool) ([]byte, map[int]ftioResult) {
	t.Helper()
	fsys := testFS()
	inj := fault.New(fault.Config{Seed: 1})
	inj.KillRankAt(victim, point, occurrence)
	fsys.SetFault(inj)
	var mu sync.Mutex
	results := map[int]ftioResult{}
	err := mpi.Run(ftioProcs, mpi.DefaultNet(), func(c *mpi.Comm) error {
		rank := c.Rank()
		c.Proc().SetStats(iostat.New())
		f, err := Open(c, fsys, "ftw", ModeRdWr|ModeCreate, ftioHints())
		if err != nil {
			return err
		}
		if err := f.SetView(int64(rank)*ftioRegion, mpitype.Contig(ftioRegion)); err != nil {
			return err
		}
		var werr error
		if strided {
			werr = f.WriteAtAllFrom(0, ftioRegion, newStridedMem(ftioPattern(rank, ftioRegion)))
		} else {
			werr = f.WriteAtAll(0, ftioPattern(rank, ftioRegion))
		}
		st := c.Proc().Stats()
		mu.Lock()
		results[rank] = ftioResult{
			err:      werr,
			clock:    c.Clock(),
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
	// still in flight when the collective returns. after_issue is passed only by aggregators, once per
	// round they have something to write.
	cases := []struct {
		name       string
		victim     int
		point      string
		occurrence int64
		strided    bool // the replay packs from strided memory
	}{
		{"before_pack/r1", 1, fault.KillBeforePack, 2, false},
		{"before_pack/r1/last-round", 1, fault.KillBeforePack, 7, false},
		{"before_pack/agg2", 2, fault.KillBeforePack, 4, false},
		{"mid_exchange/r1", 1, fault.KillMidExchange, 2, false},
		{"mid_exchange/agg2", 2, fault.KillMidExchange, 0, false},
		{"mid_exchange/agg2/last-round", 2, fault.KillMidExchange, 7, false},
		{"after_issue/agg2", 2, fault.KillAfterIssue, 2, false},
		{"after_issue/agg2/last-round", 2, fault.KillAfterIssue, 7, false},
		{"mid_exchange/agg2/strided-memory", 2, fault.KillMidExchange, 3, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img, results := runFTWrite(t, tc.victim, tc.point, tc.occurrence, tc.strided)
			checkFTWrite(t, img, results, tc.victim)
			// Detection is by quiescence, so a kill run repeats: the same
			// file image, the same error, the same survivor clocks — with
			// the detection latency inside them.
			for rep := 1; rep < 3; rep++ {
				img2, results2 := runFTWrite(t, tc.victim, tc.point, tc.occurrence, tc.strided)
				if !bytes.Equal(img2, img) {
					t.Fatalf("repeat %d: file image differs from the first run's", rep)
				}
				sameFTOutcome(t, rep, results2, results)
			}
		})
	}
}

// sameFTOutcome checks that a repeated kill run left every survivor with
// the first run's error string and virtual clock, and that the clock
// contains the detection latency (at the parent commit, where detection
// was a wall-clock deadline, a killed 4-rank write finished at 0.083 s of
// virtual time as if detecting had been free).
func sameFTOutcome(t *testing.T, rep int, got, first map[int]ftioResult) {
	t.Helper()
	if len(got) != len(first) {
		t.Fatalf("repeat %d: %d survivors, the first run had %d", rep, len(got), len(first))
	}
	for rank, res := range got {
		ref := first[rank]
		if a, b := fmt.Sprint(res.err), fmt.Sprint(ref.err); a != b {
			t.Fatalf("repeat %d: rank %d returned %q, the first run %q", rep, rank, a, b)
		}
		if res.clock != ref.clock {
			t.Fatalf("repeat %d: rank %d finished at %.9f s, the first run at %.9f s", rep, rank, res.clock, ref.clock)
		}
		if res.clock < mpi.FTDetectLatency || res.clock > mpi.FTDetectLatency+0.5 {
			t.Fatalf("rank %d finished at %.4f s: the failover should cost FTDetectLatency (%.1f s) plus a fraction of a second of I/O",
				rank, res.clock, mpi.FTDetectLatency)
		}
	}
}

// TestFTKillReadFailover: reads recover fully — after the failover every
// survivor's buffer matches the file exactly, with no degraded error.
func TestFTKillReadFailover(t *testing.T) {
	// Occurrence 0 is the first round — the one whose coverage read is
	// settled at once.
	cases := []struct {
		name       string
		victim     int
		point      string
		occurrence int64
		strided    bool // the replay hands its bytes to strided memory
	}{
		{"before_pack/r1", 1, fault.KillBeforePack, 2, false},
		{"before_pack/agg2/first-round", 2, fault.KillBeforePack, 0, false},
		{"mid_exchange/r1/first-round", 1, fault.KillMidExchange, 0, false},
		{"mid_exchange/agg2", 2, fault.KillMidExchange, 1, false},
		{"after_issue/agg2", 2, fault.KillAfterIssue, 2, false},
		{"after_issue/agg2/first-round", 2, fault.KillAfterIssue, 0, false},
		{"after_issue/agg2/strided-memory", 2, fault.KillAfterIssue, 3, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var first map[int]ftioResult
			for rep := 0; rep < 3; rep++ {
				got, results := runFTRead(t, tc.victim, tc.point, tc.occurrence, tc.strided)
				if len(got) != ftioProcs-1 {
					t.Fatalf("%d survivors, want %d", len(got), ftioProcs-1)
				}
				for rank, res := range results {
					if res.err != nil {
						t.Fatalf("rank %d: read failover returned %v, want nil (full recovery)", rank, res.err)
					}
					if !bytes.Equal(got[rank], ftioPattern(rank, ftioRegion)) {
						t.Fatalf("rank %d: read-back differs after failover", rank)
					}
				}
				if first == nil {
					first = results
				} else {
					sameFTOutcome(t, rep, results, first)
				}
			}
		})
	}
}

// ftioWriteUndisturbed is the matrix's collective write with nobody killed:
// every rank writes its pattern into its region of name and closes.
func ftioWriteUndisturbed(c *mpi.Comm, fsys *pfs.FS, name string) error {
	f, err := Open(c, fsys, name, ModeRdWr|ModeCreate, ftioHints())
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
}

// runFTRead seeds the file undisturbed, then runs the collective read-back
// with victim killed at (point, occurrence); it returns the survivors'
// buffers and results indexed by original rank. strided reads into strided
// memory through ReadAtAllInto.
func runFTRead(t *testing.T, victim int, point string, occurrence int64, strided bool) (map[int][]byte, map[int]ftioResult) {
	t.Helper()
	fsys := testFS()
	runWorld(t, ftioProcs, func(c *mpi.Comm) error { return ftioWriteUndisturbed(c, fsys, "ftr") })
	inj := fault.New(fault.Config{Seed: 1})
	inj.KillRankAt(victim, point, occurrence)
	fsys.SetFault(inj)
	var mu sync.Mutex
	got := map[int][]byte{}
	results := map[int]ftioResult{}
	err := mpi.Run(ftioProcs, mpi.DefaultNet(), func(c *mpi.Comm) error {
		rank := c.Rank()
		f, err := Open(c, fsys, "ftr", ModeRdOnly, ftioHints())
		if err != nil {
			return err
		}
		if err := f.SetView(int64(rank)*ftioRegion, mpitype.Contig(ftioRegion)); err != nil {
			return err
		}
		buf := make([]byte, ftioRegion)
		var rerr error
		if strided {
			mem := newStridedMem(buf)
			rerr = f.ReadAtAllInto(0, ftioRegion, mem)
			buf = mem.linear(ftioRegion)
		} else {
			rerr = f.ReadAtAll(0, buf)
		}
		mu.Lock()
		got[rank] = buf
		results[rank] = ftioResult{err: rerr, clock: c.Clock()}
		mu.Unlock()
		return f.Close()
	})
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	return got, results
}

// TestFTCleanRunByteIdentical: a fault-free run triggers no FT machinery
// and writes exactly the bytes it was given — the always-on detector costs
// a clean run nothing it can observe.
func TestFTCleanRunByteIdentical(t *testing.T) {
	fsys := testFS()
	runWorld(t, ftioProcs, func(c *mpi.Comm) error {
		c.Proc().SetStats(iostat.New())
		if err := ftioWriteUndisturbed(c, fsys, "clean"); err != nil {
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
		if c.Clock() >= mpi.FTDetectLatency {
			return fmt.Errorf("clean run finished at %.4f s: it paid for a detection", c.Clock())
		}
		return nil
	})
	img := fileImage(t, fsys, "clean")
	for rank := 0; rank < ftioProcs; rank++ {
		base := int64(rank) * ftioRegion
		if !bytes.Equal(img[base:base+ftioRegion], ftioPattern(rank, ftioRegion)) {
			t.Fatalf("rank %d's region differs from what it wrote", rank)
		}
	}
}

// TestFTWithoutDetectorStillAgrees (the name predates the always-on
// detector): an injector armed for a kill that never fires changes
// nothing — no revocation, no deadlock report, a clean collective.
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
