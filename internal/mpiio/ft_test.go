package mpiio

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"pnetcdf/internal/fault"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/pfs"
)

// The rank-kill matrix: kill one rank at each crash point of the round
// loop, aggregator or not, in the first, a middle and the last round, during
// collective writes and reads. The invariants under test are those of
// DESIGN.md §8: no survivor hangs, every survivor returns the same
// *mpi.ErrRevoked naming the victim, so does the handle's Close, and a
// kill run repeats exactly. What the collective had not finished is
// unspecified, but no byte is ever anything a rank did not write there: each
// byte of the file and of a read buffer is the rank's pattern or still zero.

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
	closeErr error // what the handle's Close returned afterwards
}

// stridedMem is a Source and Sink over memory that holds the request in runs
// of stridedRun bytes with a gap after each, so a round boundary falls inside
// a run.
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
		res := ftioResult{err: werr, clock: c.Clock(), detected: c.Proc().Stats().Get(iostat.FTFailuresDetected)}
		res.closeErr = f.Close()
		mu.Lock()
		results[rank] = res
		mu.Unlock()
		return nil
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

// checkFTOutcome verifies the survivor invariants every killed collective
// shares: n−1 survivors, each with the *mpi.ErrRevoked naming victim alone,
// a detection counted, and a Close that returned the same revocation.
func checkFTOutcome(t *testing.T, results map[int]ftioResult, n, victim int) {
	t.Helper()
	if len(results) != n-1 {
		t.Fatalf("%d survivors reported, want %d", len(results), n-1)
	}
	if _, ok := results[victim]; ok {
		t.Fatalf("victim %d returned from the collective", victim)
	}
	for rank, res := range results {
		rv, ok := mpi.AsRevoked(res.err)
		if !ok || fmt.Sprint(rv.Failed) != fmt.Sprint([]int{victim}) {
			t.Fatalf("rank %d: %v, want *mpi.ErrRevoked naming rank %d", rank, res.err, victim)
		}
		if cv, ok := mpi.AsRevoked(res.closeErr); !ok || fmt.Sprint(cv.Failed) != fmt.Sprint(rv.Failed) {
			t.Fatalf("rank %d: Close returned %v, want the same revocation", rank, res.closeErr)
		}
		if res.detected != 1 {
			t.Errorf("rank %d: ft_failures_detected = %d, want 1", rank, res.detected)
		}
	}
}

// checkPatternOrZero fails unless every byte of got is want's or zero.
func checkPatternOrZero(t *testing.T, what string, got, want []byte) {
	t.Helper()
	for i := range got {
		if got[i] != want[i] && got[i] != 0 {
			t.Fatalf("%s byte %d = %#x: neither the pattern (%#x) nor unwritten", what, i, got[i], want[i])
		}
	}
}

// checkFTWrite verifies one write cell: the shared outcome, and a file in
// which every rank's region holds its pattern or zeros.
func checkFTWrite(t *testing.T, img []byte, results map[int]ftioResult, victim int) {
	t.Helper()
	checkFTOutcome(t, results, ftioProcs, victim)
	for rank := 0; rank < ftioProcs; rank++ {
		base := int64(rank) * ftioRegion
		checkPatternOrZero(t, fmt.Sprintf("rank %d's region", rank), img[base:base+ftioRegion], ftioPattern(rank, ftioRegion))
	}
}

// TestFTKillWriteFailover (named when a killed collective failed over to the
// survivors) kills one rank in a collective write: every survivor returns the
// revocation, each region holds its rank's pattern or zeros, and two repeats
// give the same image, errors and clocks.
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
		strided    bool // the request is packed from strided memory
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
				sameFTOutcome(t, rep, results2, results, true)
			}
		})
	}
}

// sameFTOutcome checks that a repeated kill run left every survivor with
// the first run's error string and, when exact, virtual clock, and that the
// clock contains the detection latency.
func sameFTOutcome(t *testing.T, rep int, got, first map[int]ftioResult, exact bool) {
	t.Helper()
	if len(got) != len(first) {
		t.Fatalf("repeat %d: %d survivors, the first run had %d", rep, len(got), len(first))
	}
	for rank, res := range got {
		ref := first[rank]
		if a, b := fmt.Sprint(res.err), fmt.Sprint(ref.err); a != b {
			t.Fatalf("repeat %d: rank %d returned %q, the first run %q", rep, rank, a, b)
		}
		if exact && res.clock != ref.clock {
			t.Fatalf("repeat %d: rank %d finished at %.9f s, the first run at %.9f s", rep, rank, res.clock, ref.clock)
		}
		if res.clock < mpi.FTDetectLatency || res.clock > mpi.FTDetectLatency+0.5 {
			t.Fatalf("rank %d finished at %.4f s: a killed collective should cost FTDetectLatency (%.1f s) plus a fraction of a second of I/O",
				rank, res.clock, mpi.FTDetectLatency)
		}
	}
}

// TestFTKillReadFailover (named, like the write matrix, for the failover it
// once checked): a killed read returns the revocation on every survivor,
// whose buffer holds its bytes of the file or zeros.
func TestFTKillReadFailover(t *testing.T) {
	// Occurrence 0 is the first round — the one whose coverage read is
	// settled at once.
	cases := []struct {
		name       string
		victim     int
		point      string
		occurrence int64
		strided    bool // the read scatters into strided memory
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
			checkFTRead(t, ftioDefault, tc.victim, tc.point, tc.occurrence, tc.strided)
		})
	}
}

// TestFTKillReadWithRoundsInFlight: aggregator rank 2 is killed just after
// it issues round 5's read of the matrix's 8 rounds, which readDepth keeps
// all in flight: rounds 0..5 are read and none is answered, so every
// survivor returns the revocation with nothing scattered into its buffer.
func TestFTKillReadWithRoundsInFlight(t *testing.T) {
	const rounds, killed = 8, 5
	cfg := pfs.BlueHorizon()
	if depth := readDepth(rounds, cfg.NumServers, cfg.ClientCache, 64<<10); depth <= killed {
		t.Fatalf("%d rounds in flight: round %d's read is not issued behind round 0's", depth, killed)
	}
	checkFTRead(t, ftioDefault, 2, fault.KillAfterIssue, killed, false)
	got, _ := runFTRead(t, ftioDefault, 2, fault.KillAfterIssue, killed, false)
	for rank, buf := range got {
		if !bytes.Equal(buf, make([]byte, ftioRegion)) {
			t.Fatalf("rank %d received bytes of a round nobody answered", rank)
		}
	}
}

// ftioRule is a read whose aggregator count the rule chooses (no cb_nodes):
// one FLASH unknown on 8 ranks over 2 servers, ten 64 KiB stripes, which
// the rule reads through 4 aggregators on ranks 0, 2, 4 and 6 in 3/3/3/1
// stripe domains — three rounds of 64 KiB.
var ftioRule = ftioShape{
	procs:  8,
	region: 80 << 10,
	fs: func() *pfs.FS {
		cfg := pfs.BlueHorizon()
		cfg.NumServers, cfg.StripeSize = 2, 64<<10
		return pfs.New(cfg)
	},
	info: func() *mpi.Info { return mpi.NewInfo().Set("cb_buffer_size", "65536") },
	racy: true,
}

// TestFTKillReadFailoverDefaultCount kills one of the rule's aggregators
// before its first round, in the exchange and just after its request is
// issued: every survivor must see the same revocation in every run.
func TestFTKillReadFailoverDefaultCount(t *testing.T) {
	if n := readAggregators(8, 2, 0, 10*64<<10, 64<<10); n != 4 {
		t.Fatalf("the shape reads through %d aggregators, want 4", n)
	}
	for _, tc := range []struct {
		name       string
		point      string
		occurrence int64
	}{
		{"before_pack/first-round", fault.KillBeforePack, 0},
		{"mid_exchange", fault.KillMidExchange, 1},
		{"after_issue", fault.KillAfterIssue, 1},
		{"after_issue/last-round", fault.KillAfterIssue, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkFTRead(t, ftioRule, 2, tc.point, tc.occurrence, false)
		})
	}
}

// checkFTRead runs a killed read of shape three times: the survivors share
// the outcome, each buffer holds the rank's pattern or zeros, and every run
// ends alike.
func checkFTRead(t *testing.T, sh ftioShape, victim int, point string, occurrence int64, strided bool) {
	t.Helper()
	var first map[int]ftioResult
	for rep := 0; rep < 3; rep++ {
		got, results := runFTRead(t, sh, victim, point, occurrence, strided)
		checkFTOutcome(t, results, sh.procs, victim)
		for rank, buf := range got {
			checkPatternOrZero(t, fmt.Sprintf("rank %d's buffer", rank), buf, ftioPattern(rank, sh.region))
		}
		if first == nil {
			first = results
		} else {
			sameFTOutcome(t, rep, results, first, !sh.racy)
		}
	}
}

// ftioShape is the geometry of a kill case: procs ranks each holding
// region bytes, on a file system from fs, opened with info.
type ftioShape struct {
	procs  int
	region int64
	fs     func() *pfs.FS
	info   func() *mpi.Info
	// racy: more aggregators than servers, so the order in which their
	// requests reach a server, and with it the clocks, varies run to run.
	racy bool
}

// ftioDefault is the matrix's shape: two aggregators, 8 rounds per domain.
var ftioDefault = ftioShape{procs: ftioProcs, region: ftioRegion, fs: testFS, info: ftioHints}

// ftioWriteUndisturbed is the matrix's collective write with nobody killed:
// every rank writes its pattern into its region of name and closes.
func ftioWriteUndisturbed(c *mpi.Comm, fsys *pfs.FS, name string, sh ftioShape) error {
	f, err := Open(c, fsys, name, ModeRdWr|ModeCreate, sh.info())
	if err != nil {
		return err
	}
	if err := f.SetView(int64(c.Rank())*sh.region, mpitype.Contig(sh.region)); err != nil {
		return err
	}
	if err := f.WriteAtAll(0, ftioPattern(c.Rank(), sh.region)); err != nil {
		return err
	}
	return f.Close()
}

// runFTRead seeds the file undisturbed, then runs the collective read-back
// with victim killed at (point, occurrence); it returns the survivors'
// buffers and results indexed by original rank. strided reads into strided
// memory through ReadAtAllInto.
func runFTRead(t *testing.T, sh ftioShape, victim int, point string, occurrence int64, strided bool) (map[int][]byte, map[int]ftioResult) {
	t.Helper()
	fsys := sh.fs()
	runWorld(t, sh.procs, func(c *mpi.Comm) error { return ftioWriteUndisturbed(c, fsys, "ftr", sh) })
	inj := fault.New(fault.Config{Seed: 1})
	inj.KillRankAt(victim, point, occurrence)
	fsys.SetFault(inj)
	var mu sync.Mutex
	got := map[int][]byte{}
	results := map[int]ftioResult{}
	err := mpi.Run(sh.procs, mpi.DefaultNet(), func(c *mpi.Comm) error {
		rank := c.Rank()
		c.Proc().SetStats(iostat.New())
		f, err := Open(c, fsys, "ftr", ModeRdOnly, sh.info())
		if err != nil {
			return err
		}
		if err := f.SetView(int64(rank)*sh.region, mpitype.Contig(sh.region)); err != nil {
			return err
		}
		buf := make([]byte, sh.region)
		var rerr error
		if strided {
			mem := newStridedMem(buf)
			rerr = f.ReadAtAllInto(0, sh.region, mem)
			buf = mem.linear(sh.region)
		} else {
			rerr = f.ReadAtAll(0, buf)
		}
		res := ftioResult{err: rerr, clock: c.Clock(), detected: c.Proc().Stats().Get(iostat.FTFailuresDetected)}
		res.closeErr = f.Close()
		mu.Lock()
		got[rank] = buf
		results[rank] = res
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	return got, results
}

// TestFTCleanRunByteIdentical: a fault-free run detects no failure and
// writes exactly the bytes it was given — the always-on detector costs a
// clean run nothing it can observe.
func TestFTCleanRunByteIdentical(t *testing.T) {
	fsys := testFS()
	runWorld(t, ftioProcs, func(c *mpi.Comm) error {
		c.Proc().SetStats(iostat.New())
		if err := ftioWriteUndisturbed(c, fsys, "clean", ftioDefault); err != nil {
			return err
		}
		if v := c.Proc().Stats().Get(iostat.FTFailuresDetected); v != 0 {
			return fmt.Errorf("clean run: ft_failures_detected = %d", v)
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
		if err := mpi.CatchRevoked(func() error { c.Barrier(); return nil }); err != nil {
			return fmt.Errorf("revoked without any death: %w", err)
		}
		return f.Close()
	})
}
