// Rank-failure scenarios across the full stack (DESIGN.md §8): a rank killed
// mid-collective, in the paper's FLASH checkpoint, in record writes, and in a
// matrix over every kill point, round position, direction and victim role.
// The acceptance criteria: every rank returns (no *mpi.deadlockError), every
// survivor gets the same *mpi.revokedError from the killed collective and from
// every later call, Close returns, and the file is valid at its last
// committed header, counting no record that was not written.
package integration

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"pnetcdf/internal/cdf"
	"pnetcdf/internal/core"
	"pnetcdf/internal/fault"
	"pnetcdf/internal/flash"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/pfs"
)

// killOutcome collects what each rank of a killed world returned, by rank.
type killOutcome struct {
	mu   sync.Mutex
	errs map[int][]error // the errors of the rank's checked calls, in order
}

func (o *killOutcome) record(rank int, errs ...error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.errs == nil {
		o.errs = map[int][]error{}
	}
	o.errs[rank] = errs
}

// check asserts that victim never returned and that every other of the n
// ranks returned, each of its calls with the *mpi.revokedError naming victim.
func (o *killOutcome) check(t *testing.T, n, victim int) {
	t.Helper()
	if _, ok := o.errs[victim]; ok {
		t.Fatalf("victim %d returned", victim)
	}
	if len(o.errs) != n-1 {
		t.Fatalf("%d survivors returned, want %d", len(o.errs), n-1)
	}
	for rank, errs := range o.errs {
		for i, err := range errs {
			rv, ok := mpi.AsRevoked(err)
			if !ok || fmt.Sprint(rv.Failed) != fmt.Sprint([]int{victim}) {
				t.Fatalf("rank %d, call %d: %v, want *mpi.revokedError naming rank %d", rank, i, err, victim)
			}
		}
	}
}

// runKilled runs fn on n ranks; the world must end without an error of its
// own — a survivor records what its calls returned and returns nil.
func runKilled(t *testing.T, n int, fn func(c *mpi.Comm) error) {
	t.Helper()
	if err := mpi.Run(n, mpi.DefaultNet(), fn); err != nil {
		t.Fatalf("world: %v", err) // a deadlock names itself: "mpi: deadlock: ..."
	}
}

// checkValid asserts that img passes the ncvalidate checks and returns its
// header.
func checkValid(t *testing.T, img []byte) *cdf.Header {
	t.Helper()
	hdr, issues, err := cdf.CheckFile(img)
	if err != nil || len(issues) != 0 {
		t.Fatalf("file fails validation: %v %v", err, issues)
	}
	return hdr
}

// TestFlashCheckpointRankFailure is the headline scenario: an 8-process
// FLASH checkpoint with one non-root rank killed in the exchange of its
// seventh collective (the fourth unknown). Every survivor's writer returns
// the revocation after closing the file, and the checkpoint validates with
// the header EndDef committed; each byte is the undisturbed run's or still
// zero.
func TestFlashCheckpointRankFailure(t *testing.T) {
	const nprocs, victim = 8, 3
	cfg := flashCfg()
	write := func(fsys *pfs.FS, out *killOutcome) {
		t.Helper()
		runKilled(t, nprocs, func(c *mpi.Comm) error {
			c.Proc().SetStats(iostat.New())
			_, err := flash.WriteCheckpointPnetCDF(c, fsys, "chk.nc", cfg, nil)
			if out == nil {
				return err
			}
			if got := c.Proc().Stats().Get(iostat.FTFailuresDetected); got != 1 {
				return fmt.Errorf("rank %d: ft_failures_detected = %d, want 1", c.Rank(), got)
			}
			out.record(c.Rank(), err)
			return nil
		})
	}
	cleanFS := pfs.New(pfs.BlueHorizon())
	write(cleanFS, nil)
	clean := readPFSFile(t, cleanFS, "chk.nc")

	killFS := pfs.New(pfs.BlueHorizon())
	inj := fault.New(fault.Config{Seed: 1})
	inj.KillRankAt(victim, fault.KillMidExchange, 6)
	killFS.SetFault(inj)
	var out killOutcome
	write(killFS, &out)
	out.check(t, nprocs, victim)

	killed := readPFSFile(t, killFS, "chk.nc")
	hdr := checkValid(t, killed)
	if !bytes.Equal(hdr.Encode(), checkValid(t, clean).Encode()) {
		t.Fatal("the killed run's header differs from the one EndDef committed")
	}
	if len(killed) != len(clean) {
		t.Fatalf("killed-run file is %d bytes, clean %d", len(killed), len(clean))
	}
	for j := range clean {
		if killed[j] != clean[j] && killed[j] != 0 {
			t.Fatalf("byte %d = %#x: neither the undisturbed run's (%#x) nor unwritten", j, killed[j], clean[j])
		}
	}
	// The checkpoint reopens: a fresh single-process world reads back rank
	// 0's tree metadata, written before the kill.
	err := mpi.Run(1, mpi.DefaultNet(), func(c *mpi.Comm) error {
		d, err := core.Open(c, killFS, "chk.nc", nctype.NoWrite, nil)
		if err != nil {
			return err
		}
		lref := make([]int32, cfg.BlocksPerProc)
		if err := d.GetVaraAll(d.VarID("lrefine"), []int64{0}, []int64{int64(cfg.BlocksPerProc)}, lref); err != nil {
			return err
		}
		for i, v := range lref {
			if want := int32(1 + i%4); v != want {
				return fmt.Errorf("rank 0 lrefine[%d] = %d after the kill, want %d", i, v, want)
			}
		}
		return d.Close()
	})
	if err != nil {
		t.Fatalf("reopen after rank failure: %v", err)
	}
}

// TestRecordVarNumRecsAfterRankFailure: killing a rank during record 1's
// write — one blocking put of one variable, or one WaitAll over queued puts
// of two record variables — returns the revocation from that write, from
// the next record's and from Close. The file counts only record 0, the one
// that was written, and reads it back whole.
func TestRecordVarNumRecsAfterRankFailure(t *testing.T) {
	for _, nvars := range []int{1, 2} {
		t.Run(fmt.Sprintf("vars=%d", nvars), func(t *testing.T) { recordVarRankFailure(t, nvars) })
	}
}

// recordVarRankFailure writes each record of nvars record variables — one
// blocking put for one variable, one WaitAll for more — and kills a rank in
// record 1's collective.
func recordVarRankFailure(t *testing.T, nvars int) {
	const nprocs, victim = 4, 2
	fsys := pfs.New(pfs.BlueHorizon())
	inj := fault.New(fault.Config{Seed: 5})
	fsys.SetFault(inj)
	value := func(v, rank, i int) float64 { return float64(v*100_000 + rank*1000 + i + 1) }
	var out killOutcome
	runKilled(t, nprocs, func(c *mpi.Comm) error {
		rank := c.Rank()
		d, err := core.Create(c, fsys, "rec.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		tdim, _ := d.DefDim("time", 0)
		x, _ := d.DefDim("x", int64(nprocs*64))
		bufs := make([][]float64, nvars)
		for v := range bufs {
			if _, err := d.DefVar([]string{"v", "w"}[v], nctype.Double, []int{tdim, x}); err != nil {
				return err
			}
			bufs[v] = make([]float64, 64)
			for i := range bufs[v] {
				bufs[v][i] = value(v, rank, i)
			}
		}
		if err := d.EndDef(); err != nil {
			return err
		}
		write := func(rec int64) error {
			start, count := []int64{rec, int64(rank) * 64}, []int64{1, 64}
			if nvars == 1 {
				return d.PutVaraAll(0, start, count, bufs[0])
			}
			for v, buf := range bufs {
				if _, err := d.IPutVara(v, start, count, buf); err != nil {
					return err
				}
			}
			return d.WaitAll()
		}
		if err := write(0); err != nil {
			return err
		}
		c.Barrier()
		// Arm the kill only now, so it deterministically lands in record
		// 1's collective regardless of how many rounds came before.
		if rank == victim {
			inj.KillRankAt(victim, fault.KillBeforePack, 0)
		}
		c.Barrier()
		killedErr := write(1)
		laterErr := write(2)
		out.record(rank, killedErr, laterErr, d.Close())
		return nil
	})
	out.check(t, nprocs, victim)
	hdr := checkValid(t, readPFSFile(t, fsys, "rec.nc"))
	if hdr.NumRecs != 1 {
		t.Fatalf("on-disk numrecs = %d after the kill, want 1: only record 0 was written", hdr.NumRecs)
	}
	err := mpi.Run(1, mpi.DefaultNet(), func(c *mpi.Comm) error {
		d, err := core.Open(c, fsys, "rec.nc", nctype.NoWrite, nil)
		if err != nil {
			return err
		}
		got := make([]float64, 64)
		for v := 0; v < nvars; v++ {
			for r := 0; r < nprocs; r++ {
				if err := d.GetVaraAll(v, []int64{0, int64(r) * 64}, []int64{1, 64}, got); err != nil {
					return err
				}
				for i, x := range got {
					if want := value(v, r, i); x != want {
						return fmt.Errorf("record 0 of variable %d, rank %d slice, elem %d = %v, want %v", v, r, i, x, want)
					}
				}
			}
		}
		return d.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The kill matrix's geometry: 4 ranks each hold a quarter of a 1 MiB record
// of one record variable, which starts on a stripe boundary. cb_nodes=2 puts
// the aggregators on ranks 0 and 2, each with a 512 KiB domain of the record
// taken in 8 rounds of 64 KiB.
const (
	kmProcs  = 4
	kmElems  = 32 << 10 // float64s per rank per record: 256 KiB
	kmRounds = 8
)

// kmInfo is the matrix's hints: the header padded to 1 MiB, two
// aggregators, 64 KiB rounds.
func kmInfo() *mpi.Info {
	return mpi.NewInfo().Set("nc_header_align_size", "1048576").
		Set("cb_nodes", "2").Set("cb_buffer_size", "65536")
}

// kmValue is element i of rank's slice of record rec; never zero.
func kmValue(rank, rec, i int) float64 { return float64(rec*1_000_000 + rank*100_000 + i + 1) }

// kmWrite has every rank write its slice of record rec.
func kmWrite(d *core.Dataset, rank, rec int) error {
	buf := make([]float64, kmElems)
	for i := range buf {
		buf[i] = kmValue(rank, rec, i)
	}
	return d.PutVaraAll(0, []int64{int64(rec), int64(rank) * kmElems}, []int64{1, kmElems}, buf)
}

// kmCreate writes record 0 undisturbed on fsys, in kmRounds rounds, and
// closes the file.
func kmCreate(t *testing.T, fsys *pfs.FS) {
	t.Helper()
	runKilled(t, kmProcs, func(c *mpi.Comm) error {
		st := iostat.New()
		c.Proc().SetStats(st)
		d, err := core.Create(c, fsys, "km.nc", nctype.Clobber, kmInfo())
		if err != nil {
			return err
		}
		tdim, _ := d.DefDim("t", 0)
		x, _ := d.DefDim("x", kmProcs*kmElems)
		if _, err := d.DefVar("v", nctype.Double, []int{tdim, x}); err != nil {
			return err
		}
		if err := d.EndDef(); err != nil {
			return err
		}
		if err := kmWrite(d, c.Rank(), 0); err != nil {
			return err
		}
		if got := st.Get(iostat.IOTwoPhaseRounds); got != kmRounds {
			return fmt.Errorf("the record took %d rounds, want %d", got, kmRounds)
		}
		return d.Close()
	})
}

// TestRankKillMatrix kills one rank at every kill point, in the first, a
// middle and the last round, in a record write and in reads that keep 2 and
// 4 rounds in flight, as rank 0 (the root, an aggregator), rank 2 (another
// aggregator) and rank 1 (no aggregator; it never issues a request, so it
// has no after_issue). In every cell every rank returns, every survivor's
// collective, a later collective and Close return the same revocation, and
// the file validates: a killed write leaves it counting record 0 only, a
// killed read leaves it as it was; record 0 reads back whole.
func TestRankKillMatrix(t *testing.T) {
	directions := []struct {
		name    string
		servers int // I/O servers: a read keeps one round in flight per server
	}{
		{"write", 12},
		{"read/depth2", 2},
		{"read/depth4", 4},
	}
	rounds := []struct {
		name string
		occ  int64
	}{{"first", 0}, {"middle", kmRounds / 2}, {"last", kmRounds - 1}}
	for _, dir := range directions {
		for _, point := range []string{fault.KillBeforePack, fault.KillMidExchange, fault.KillAfterIssue} {
			for _, rd := range rounds {
				for _, victim := range []int{0, 2, 1} {
					if victim == 1 && point == fault.KillAfterIssue {
						continue
					}
					name := fmt.Sprintf("%s/%s/%s-round/victim%d", dir.name, point, rd.name, victim)
					t.Run(name, func(t *testing.T) {
						killMatrixCell(t, dir.name == "write", dir.servers, point, rd.occ, victim)
					})
				}
			}
		}
	}
}

func killMatrixCell(t *testing.T, write bool, servers int, point string, occ int64, victim int) {
	cfg := pfs.BlueHorizon()
	cfg.NumServers = servers
	fsys := pfs.New(cfg)
	kmCreate(t, fsys)
	before := readPFSFile(t, fsys, "km.nc")

	inj := fault.New(fault.Config{Seed: 1})
	inj.KillRankAt(victim, point, occ)
	fsys.SetFault(inj)
	omode := nctype.NoWrite
	if write {
		omode = nctype.Write
	}
	var out killOutcome
	runKilled(t, kmProcs, func(c *mpi.Comm) error {
		rank := c.Rank()
		d, err := core.Open(c, fsys, "km.nc", omode, kmInfo())
		if err != nil {
			return err
		}
		access := func() error {
			if write {
				return kmWrite(d, rank, 1)
			}
			buf := make([]float64, kmElems)
			return d.GetVaraAll(0, []int64{0, int64(rank) * kmElems}, []int64{1, kmElems}, buf)
		}
		killedErr := access()
		laterErr := access()
		out.record(rank, killedErr, laterErr, d.Close())
		return nil
	})
	out.check(t, kmProcs, victim)

	img := readPFSFile(t, fsys, "km.nc")
	hdr := checkValid(t, img)
	if hdr.NumRecs != 1 {
		t.Fatalf("on-disk numrecs = %d, want 1: only record 0 was written whole", hdr.NumRecs)
	}
	if !write && !bytes.Equal(img, before) {
		t.Fatal("a killed read changed the file")
	}
	err := mpi.Run(1, mpi.DefaultNet(), func(c *mpi.Comm) error {
		d, err := core.Open(c, fsys, "km.nc", nctype.NoWrite, nil)
		if err != nil {
			return err
		}
		got := make([]float64, kmProcs*kmElems)
		if err := d.GetVaraAll(0, []int64{0, 0}, []int64{1, kmProcs * kmElems}, got); err != nil {
			return err
		}
		for i, x := range got {
			if want := kmValue(i/kmElems, 0, i%kmElems); x != want {
				return fmt.Errorf("record 0 element %d = %v, want %v", i, x, want)
			}
		}
		return d.Close()
	})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
}

// TestWaitAllEmptyQueue: WaitAll with nothing queued is a legal collective
// no-op on every rank — including mixed worlds where only some ranks
// queued work (the fused batch must agree on emptiness collectively).
func TestWaitAllEmptyQueue(t *testing.T) {
	fsys := pfs.New(pfs.BlueHorizon())
	err := mpi.Run(4, mpi.DefaultNet(), func(c *mpi.Comm) error {
		d, err := core.Create(c, fsys, "wq.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		x, _ := d.DefDim("x", 256)
		v, _ := d.DefVar("v", nctype.Int, []int{x})
		if err := d.EndDef(); err != nil {
			return err
		}
		// All ranks empty.
		for i := 0; i < 2; i++ {
			if err := d.WaitAll(); err != nil {
				return fmt.Errorf("empty WaitAll #%d: %w", i, err)
			}
		}
		// Only rank 1 queues; everyone still calls WaitAll.
		if c.Rank() == 1 {
			vals := make([]int32, 64)
			for i := range vals {
				vals[i] = int32(i)
			}
			if _, err := d.IPutVara(v, []int64{64}, []int64{64}, vals); err != nil {
				return err
			}
		}
		if err := d.WaitAll(); err != nil {
			return fmt.Errorf("mixed WaitAll: %w", err)
		}
		// Nothing stays queued: a read of v, which a queued write of it
		// would refuse with nctype.ErrPending on every rank, goes through.
		got := make([]int32, 64)
		if err := d.GetVaraAll(v, []int64{64}, []int64{64}, got); err != nil {
			return fmt.Errorf("read after mixed WaitAll: %w", err)
		}
		if got[63] != 63 {
			return fmt.Errorf("read after mixed WaitAll: element 63 = %d", got[63])
		}
		return d.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	// The lone queued write must have landed.
	err = mpi.Run(1, mpi.DefaultNet(), func(c *mpi.Comm) error {
		d, err := core.Open(c, fsys, "wq.nc", nctype.NoWrite, nil)
		if err != nil {
			return err
		}
		got := make([]int32, 64)
		if err := d.GetVaraAll(0, []int64{64}, []int64{64}, got); err != nil {
			return err
		}
		for i, v := range got {
			if v != int32(i) {
				return errors.New("queued write lost through empty-queue WaitAlls")
			}
		}
		return d.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}
