// Rank-failure scenarios across the full stack (DESIGN.md §8): the paper's
// FLASH checkpoint workload with a rank killed mid-collective, and record
// variables under rank death. The acceptance criteria: no survivor hangs,
// the file validates, survivor data is byte-identical to an undisturbed
// run, and the record count stays consistent across the failure.
package integration

import (
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
	"pnetcdf/internal/mpiio"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/pfs"
)

// TestFlashCheckpointRankFailure is the headline scenario: an 8-process
// FLASH checkpoint with one non-root rank killed mid-exchange. The
// survivors must detect the death, shrink, fail over, and finish a file
// that validates and matches the undisturbed run everywhere outside the
// dead rank's own blocks.
func TestFlashCheckpointRankFailure(t *testing.T) {
	const nprocs, victim = 8, 3
	cfg := flashCfg()

	writeOnce := func(fsys *pfs.FS) (stats map[string]int64, degraded []error) {
		t.Helper()
		var mu sync.Mutex
		stats = map[string]int64{}
		fn := func(c *mpi.Comm) error {
			c.Proc().SetStats(iostat.New())
			rep, err := flash.WriteCheckpointPnetCDF(c, fsys, "chk.nc", cfg, nil)
			if err != nil {
				return err
			}
			st := c.Proc().Stats()
			mu.Lock()
			for _, ctr := range []iostat.Counter{
				iostat.FTFailuresDetected, iostat.FTCommShrinks,
				iostat.FTFailoverRounds, iostat.FTDegradedCompletions,
			} {
				stats[ctr.String()] += st.Get(ctr)
			}
			if c.Rank() == 0 {
				degraded = rep.Degraded
			}
			mu.Unlock()
			return nil
		}
		if err := mpi.Run(nprocs, mpi.DefaultNet(), fn); err != nil {
			t.Fatal(err)
		}
		return stats, degraded
	}

	cleanFS := pfs.New(pfs.DefaultConfig())
	writeOnce(cleanFS)
	clean := readPFSFile(t, cleanFS, "chk.nc")

	killFS := pfs.New(pfs.DefaultConfig())
	inj := fault.New(fault.Config{Seed: 1})
	inj.KillRankAt(victim, fault.KillMidExchange, 6)
	killFS.SetFault(inj)
	stats, degraded := writeOnce(killFS)
	killed := readPFSFile(t, killFS, "chk.nc")

	if inj.Injected() == 0 {
		t.Fatal("kill never fired; scenario proves nothing")
	}
	if stats["ft_failures_detected"] == 0 || stats["ft_comm_shrinks"] == 0 {
		t.Fatalf("failure not detected/shrunk: %v", stats)
	}
	if stats["ft_failover_rounds"] == 0 {
		t.Fatalf("no failover rounds replayed: %v", stats)
	}
	// The file must still be a structurally valid netCDF file.
	hdr, issues, err := cdf.CheckFile(killed)
	if err != nil || len(issues) != 0 {
		t.Fatalf("killed-run checkpoint fails validation: %v %v", err, issues)
	}
	if len(killed) != len(clean) {
		t.Fatalf("killed-run file is %d bytes, clean %d", len(killed), len(clean))
	}
	// Byte identity outside the victim's exclusive regions: every variable
	// is laid out with tot_blocks outermost, so the victim's share of each
	// is one contiguous slab of its fixed part.
	tot := int64(nprocs * cfg.BlocksPerProc)
	victimRegion := func(off int64) bool {
		for _, v := range hdr.Vars {
			per := v.VSize / tot // bytes per block (vsize includes padding; per-block share is exact here)
			lo := v.Begin + int64(victim*cfg.BlocksPerProc)*per
			hi := lo + int64(cfg.BlocksPerProc)*per
			if off >= lo && off < hi {
				return true
			}
		}
		return false
	}
	for j := range clean {
		if clean[j] != killed[j] && !victimRegion(int64(j)) {
			t.Fatalf("killed run diverges from clean run at byte %d, outside the victim's regions", j)
		}
	}
	// The degraded completions recorded by the library must match what the
	// flash writer reported to its caller.
	if int64(len(degraded)) == 0 && stats["ft_degraded_completions"] > 0 {
		t.Fatalf("library counted %d degraded completions but the writer reported none",
			stats["ft_degraded_completions"])
	}
	for _, derr := range degraded {
		de, ok := mpiio.AsDegraded(derr)
		if !ok {
			t.Fatalf("writer recorded a non-degraded error: %v", derr)
		}
		for _, x := range de.Missing {
			for off := x.Off; off < x.Off+x.Len; off += 512 {
				if !victimRegion(off) {
					t.Fatalf("missing extent %+v reaches outside the victim's regions", x)
				}
			}
		}
	}
	// The checkpoint stays reopenable: a fresh single-process world can
	// open it and read a survivor's metadata back.
	err = mpi.Run(1, mpi.DefaultNet(), func(c *mpi.Comm) error {
		d, err := core.Open(c, killFS, "chk.nc", nctype.NoWrite, nil)
		if err != nil {
			return err
		}
		lref := make([]int32, cfg.BlocksPerProc)
		if err := d.GetVaraAll(0, []int64{0}, []int64{int64(cfg.BlocksPerProc)}, lref); err != nil {
			return err
		}
		for i, v := range lref {
			if want := int32(1 + i%4); v != want {
				return fmt.Errorf("rank 0 lrefine[%d] = %d after failover, want %d", i, v, want)
			}
		}
		return d.Close()
	})
	if err != nil {
		t.Fatalf("reopen after rank failure: %v", err)
	}
}

// TestRecordVarNumRecsAfterRankFailure: killing a rank during a record
// write must leave the record count consistent — the survivors' failover
// completes the record, numrecs reflects every record started, and the
// dataset keeps working (and growing) on the shrunken communicator. The
// record is one blocking put of one variable, or one WaitAll over queued
// puts of two record variables, whose replay re-fills the merged source.
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
	fsys := pfs.New(pfs.DefaultConfig())
	inj := fault.New(fault.Config{Seed: 5})
	fsys.SetFault(inj)
	value := func(v, rank, i int) float64 { return float64(v*100_000 + rank*1000 + i + 1) }
	err := mpi.Run(nprocs, mpi.DefaultNet(), func(c *mpi.Comm) error {
		// The in-place shrink renumbers c.Rank() mid-run (ULFM semantics);
		// pin this process's data placement to its original rank.
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
			inj.KillRank(victim, fault.KillBeforePack)
		}
		c.Barrier()
		err = write(1)
		if err != nil {
			if _, ok := mpiio.AsDegraded(err); !ok {
				return fmt.Errorf("rank %d: record write under kill: %v", c.Rank(), err)
			}
		}
		// Life goes on for the survivors: another record on the shrunken
		// communicator (the victim's slice of it is simply never written).
		if err := write(2); err != nil {
			if _, ok := mpiio.AsDegraded(err); !ok {
				return fmt.Errorf("rank %d: post-failover record write: %v", c.Rank(), err)
			}
		}
		if got := d.NumRecs(); got != 3 {
			return fmt.Errorf("rank %d: NumRecs = %d after failover, want 3", c.Rank(), got)
		}
		return d.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if inj.Injected() == 0 {
		t.Fatal("kill never fired")
	}
	img := readPFSFile(t, fsys, "rec.nc")
	hdr, issues, err := cdf.CheckFile(img)
	if err != nil || len(issues) != 0 {
		t.Fatalf("record file fails validation after rank failure: %v %v", err, issues)
	}
	if hdr.NumRecs != 3 {
		t.Fatalf("on-disk numrecs = %d after failover, want 3", hdr.NumRecs)
	}
	// Survivor data of the killed record must be intact on re-read.
	err = mpi.Run(1, mpi.DefaultNet(), func(c *mpi.Comm) error {
		d, err := core.Open(c, fsys, "rec.nc", nctype.NoWrite, nil)
		if err != nil {
			return err
		}
		got := make([]float64, 64)
		for v := 0; v < nvars; v++ {
			for r := 0; r < nprocs; r++ {
				if r == victim {
					continue
				}
				if err := d.GetVaraAll(v, []int64{1, int64(r) * 64}, []int64{1, 64}, got); err != nil {
					return err
				}
				for i, x := range got {
					if want := value(v, r, i); x != want {
						return fmt.Errorf("record 1 of variable %d, rank %d slice, elem %d = %v, want %v", v, r, i, x, want)
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

// TestWaitAllEmptyQueue: WaitAll with nothing queued is a legal collective
// no-op on every rank — including mixed worlds where only some ranks
// queued work (the fused batch must agree on emptiness collectively).
func TestWaitAllEmptyQueue(t *testing.T) {
	fsys := pfs.New(pfs.DefaultConfig())
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
			if got := d.PendingRequests(); got != 0 {
				return fmt.Errorf("PendingRequests = %d after empty WaitAll", got)
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
		if got := d.PendingRequests(); got != 0 {
			return fmt.Errorf("PendingRequests = %d after mixed WaitAll", got)
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
