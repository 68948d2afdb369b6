// Fault-injection scenarios across the full stack: the paper's FLASH
// checkpoint workload under a transient fault rate, and crash points armed
// inside the parallel header commit.
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
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/pfs"
)

// readPFSFile pulls a file's raw bytes out of the simulated file system.
func readPFSFile(t *testing.T, fsys *pfs.FS, name string) []byte {
	t.Helper()
	pf, _, err := fsys.Open(name, 0)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, pf.Size())
	if len(img) > 0 {
		if _, err := pfs.NewSerialFile(pf, 0).ReadAt(img, 0); err != nil {
			t.Fatal(err)
		}
	}
	return img
}

// flashCfg is a reduced-variable-count FLASH configuration at the paper's
// 8x8x8 block shape, sized so the 8-rank double run stays quick while still
// moving tens of megabytes.
func flashCfg() flash.Config {
	return flash.Config{NXB: 8, NYB: 8, NZB: 8, NGuard: 4, NVar: 12, NPlotVar: 2, BlocksPerProc: 20}
}

// TestFlashCheckpointUnderTransientFaults is the acceptance scenario: an
// 8-process FLASH checkpoint run at a 1% transient fault rate (drawn per
// 64 KiB server-request unit) must complete, produce checkpoints
// byte-identical to the fault-free run, and account the recovery work in
// the retry counters.
func TestFlashCheckpointUnderTransientFaults(t *testing.T) {
	const files = 2
	run := func(fsys *pfs.FS) (imgs [][]byte, faults, retries int64) {
		t.Helper()
		var mu sync.Mutex
		err := mpi.Run(8, mpi.DefaultNet(), func(c *mpi.Comm) error {
			c.Proc().SetStats(iostat.New())
			for i := 0; i < files; i++ {
				if _, err := flash.WriteCheckpointPnetCDF(c, fsys, fmt.Sprintf("chk%d.nc", i), flashCfg(), nil); err != nil {
					return err
				}
			}
			mu.Lock()
			faults += c.Proc().Stats().Get(iostat.PfsFaultsInjected)
			retries += c.Proc().Stats().Get(iostat.PfsRetries)
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < files; i++ {
			imgs = append(imgs, readPFSFile(t, fsys, fmt.Sprintf("chk%d.nc", i)))
		}
		return imgs, faults, retries
	}
	clean, _, _ := run(pfs.New(pfs.BlueHorizon()))
	faulty := pfs.New(pfs.BlueHorizon())
	faulty.SetFault(fault.New(fault.Config{Seed: 2003, ReadErrRate: 0.01, WriteErrRate: 0.01, FaultUnit: 64 << 10}))
	injected, faults, retries := run(faulty)
	// Count the faults pfs delivered, not the injector's draws: a draw pfs
	// does not act on proves nothing.
	if faults == 0 {
		t.Fatal("no faults injected at 1%; workload too small to prove anything")
	}
	if retries == 0 {
		t.Fatal("faults injected but no retries accounted in iostat")
	}
	for i := 0; i < files; i++ {
		if len(clean[i]) != len(injected[i]) {
			t.Fatalf("faulted checkpoint %d is %d bytes, clean is %d", i, len(injected[i]), len(clean[i]))
		}
		for j := range clean[i] {
			if clean[i][j] != injected[i][j] {
				t.Fatalf("faulted checkpoint %d diverges from clean run at byte %d", i, j)
			}
		}
		// The checkpoint must also be a valid netCDF file.
		if _, issues, err := cdf.CheckFile(injected[i]); err != nil || len(issues) != 0 {
			t.Fatalf("faulted checkpoint %d fails validation: %v %v", i, err, issues)
		}
	}
}

// TestParallelHeaderCommitCrashSweep arms crash points across the header
// region, record data, and the journal while a parallel dataset grows its
// record count. Whatever byte the "process" dies at, the abandoned file
// must open as the old or the new header — and a write-mode reopen must
// repair it for plain serial readers.
func TestParallelHeaderCommitCrashSweep(t *testing.T) {
	for _, at := range []int64{0, 2, 5, 9, 40, 100, 4096, 1 << 20} {
		at := at
		t.Run(fmt.Sprintf("crash@%d", at), func(t *testing.T) {
			fsys := pfs.New(pfs.BlueHorizon())
			// Build a clean 2-record file.
			err := mpi.Run(2, mpi.DefaultNet(), func(c *mpi.Comm) error {
				d, err := core.Create(c, fsys, "c.nc", nctype.Clobber, nil)
				if err != nil {
					return err
				}
				tdim, _ := d.DefDim("time", 0)
				x, _ := d.DefDim("x", 16)
				v, _ := d.DefVar("v", nctype.Double, []int{tdim, x})
				if err := d.EndDef(); err != nil {
					return err
				}
				buf := make([]float64, 8)
				for i := range buf {
					buf[i] = float64(i + 1)
				}
				for rec := int64(0); rec < 2; rec++ {
					start := []int64{rec, int64(c.Rank()) * 8}
					if err := d.PutVaraAll(v, start, []int64{1, 8}, buf); err != nil {
						return err
					}
				}
				return d.Close()
			})
			if err != nil {
				t.Fatal(err)
			}
			// Reopen, grow to 3 records, and crash during the sync.
			in := fault.New(fault.Config{Seed: 7})
			fsys.SetFault(in)
			err = mpi.Run(2, mpi.DefaultNet(), func(c *mpi.Comm) error {
				d, err := core.Open(c, fsys, "c.nc", nctype.Write, nil)
				if err != nil {
					return err
				}
				buf := make([]float64, 8)
				for i := range buf {
					buf[i] = 99
				}
				if err := d.PutVaraAll(0, []int64{2, int64(c.Rank()) * 8}, []int64{1, 8}, buf); err != nil {
					return err
				}
				if c.Rank() == 0 {
					in.ArmCrash(at, false)
				}
				c.Barrier()
				if err := d.Sync(); err != nil {
					if errors.Is(err, fault.ErrCrashed) || errors.Is(err, mpi.ErrPeerFailed) {
						return nil // process died mid-commit; abandon the file
					}
					return err
				}
				return nil // crash byte not reached by this sync
			})
			fsys.SetFault(nil)
			if err != nil {
				t.Fatal(err)
			}
			// The wreckage must classify: valid in-place header, or a
			// journal holding the new one.
			img := readPFSFile(t, fsys, "c.nc")
			if _, _, err := cdf.CheckFile(append([]byte(nil), img...)); err != nil {
				if rec := cdf.RecoverJournal(img); rec == nil {
					t.Fatalf("crashed file has neither readable header nor journal: %v", err)
				}
			}
			// A write-mode parallel open must recover and repair.
			err = mpi.Run(2, mpi.DefaultNet(), func(c *mpi.Comm) error {
				d, err := core.Open(c, fsys, "c.nc", nctype.Write, nil)
				if err != nil {
					return err
				}
				n := d.NumRecs()
				if n != 2 && n != 3 {
					return fmt.Errorf("NumRecs=%d after crash, want 2 or 3", n)
				}
				got := make([]float64, 8)
				for rec := int64(0); rec < n; rec++ {
					if err := d.GetVaraAll(0, []int64{rec, int64(c.Rank()) * 8}, []int64{1, 8}, got); err != nil {
						return fmt.Errorf("read rec %d: %w", rec, err)
					}
				}
				return d.Close()
			})
			if err != nil {
				t.Fatal(err)
			}
			// After repair, the in-place header is readable again.
			if _, err := cdf.Decode(readPFSFile(t, fsys, "c.nc")); err != nil {
				t.Fatalf("in-place header still torn after write-mode reopen: %v", err)
			}
		})
	}
}

// TestFirstCommitCrashSweep arms crash points in the commit Create→EndDef
// runs against the file it has just truncated: in the header body, in the
// magic that is written last, and past everything the commit writes; torn in
// place and with the tail lost. That commit has no journal — there is no old
// header to protect — so the wreck is one of two things: a file without magic
// and without journal, on which Open fails with ErrNotNC on every rank (the
// creation never completed; ErrVersion when the magic tore before its version
// byte), or the complete new header over a file of the size it declares.
func TestFirstCommitCrashSweep(t *testing.T) {
	for _, at := range []int64{0, 2, 3, 4, 5, 40, 100, 200, 4096, 1 << 20} {
		for _, truncate := range []bool{false, true} {
			at, truncate := at, truncate
			t.Run(fmt.Sprintf("crash@%d,truncate=%v", at, truncate), func(t *testing.T) {
				fsys := pfs.New(pfs.BlueHorizon())
				in := fault.New(fault.Config{Seed: 7})
				fsys.SetFault(in)
				err := mpi.Run(2, mpi.DefaultNet(), func(c *mpi.Comm) error {
					d, err := core.Create(c, fsys, "c.nc", nctype.Clobber, nil)
					if err != nil {
						return err
					}
					tdim, _ := d.DefDim("time", 0)
					x, _ := d.DefDim("x", 16)
					if _, err := d.DefVar("grid", nctype.Int, []int{x}); err != nil {
						return err
					}
					if _, err := d.DefVar("v", nctype.Double, []int{tdim, x}); err != nil {
						return err
					}
					if c.Rank() == 0 {
						in.ArmCrash(at, truncate)
					}
					c.Barrier()
					err = d.EndDef()
					if errors.Is(err, fault.ErrCrashed) || errors.Is(err, mpi.ErrPeerFailed) {
						return nil // process died mid-commit; abandon the file
					}
					return err // nil: the commit writes nothing at the crash byte
				})
				fsys.SetFault(nil)
				if err != nil {
					t.Fatal(err)
				}
				img := readPFSFile(t, fsys, "c.nc")
				h, issues, err := cdf.CheckFile(append([]byte(nil), img...))
				if err == nil {
					if len(issues) != 0 || len(h.Vars) != 2 || int64(len(img)) != h.FileSize() {
						t.Fatalf("a header was published over a %d-byte file: %d vars, declares %d bytes, issues %v", len(img), len(h.Vars), h.FileSize(), issues)
					}
					return
				}
				if cdf.RecoverJournal(img) != nil {
					t.Fatal("a first commit left a journal behind")
				}
				var opened [2]error
				err = mpi.Run(2, mpi.DefaultNet(), func(c *mpi.Comm) error {
					_, opened[c.Rank()] = core.Open(c, fsys, "c.nc", nctype.NoWrite, nil)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for rank, err := range opened {
					if !errors.Is(err, nctype.ErrNotNC) && !(at == 3 && errors.Is(err, nctype.ErrVersion)) {
						t.Fatalf("rank %d opened a file whose creation never completed: %v", rank, err)
					}
				}
			})
		}
	}
}
