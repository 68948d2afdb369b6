package netcdf

import (
	"errors"
	"fmt"
	"testing"

	"pnetcdf/internal/cdf"
	"pnetcdf/internal/fault"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/pfs"
)

// pfsFile is a simulated file for the fault tests: the library runs on it
// through pfs.NewSerialFile, the store of the serial-netCDF baseline in every
// benchmark, and faults are injected at its file system.
type pfsFile struct {
	fs *pfs.FS
	f  *pfs.File
}

// newPFSFile returns a simulated file holding img, faults off.
func newPFSFile(t *testing.T, img []byte) *pfsFile {
	t.Helper()
	fsys := pfs.New(pfs.BlueHorizon())
	f, _ := fsys.Create("f.nc", 0)
	if len(img) > 0 {
		if _, err := f.WriteAt(0, img, 0); err != nil {
			t.Fatal(err)
		}
	}
	return &pfsFile{fs: fsys, f: f}
}

// store is a fresh serial handle on the file.
func (p *pfsFile) store() backend { return pfs.NewSerialFile(p.f, 0) }

// image reads the file's bytes with injection off.
func (p *pfsFile) image(t *testing.T) []byte {
	t.Helper()
	saved := p.fs.Fault()
	p.fs.SetFault(nil)
	defer p.fs.SetFault(saved)
	img := make([]byte, p.f.Size())
	if _, err := p.f.ReadAt(0, img, 0); err != nil {
		t.Fatal(err)
	}
	return img
}

// buildRecordFile writes a small record file (time-unlimited var over a
// 2x3 spatial grid, nrecs records) and returns the clean on-disk image.
func buildRecordFile(t *testing.T, nrecs int) []byte {
	t.Helper()
	store := &MemStore{}
	d, err := Create(store, nctype.Clobber)
	if err != nil {
		t.Fatal(err)
	}
	tdim, _ := d.DefDim("time", 0)
	ydim, _ := d.DefDim("y", 2)
	xdim, _ := d.DefDim("x", 3)
	zdim, _ := d.DefDim("z", 256)
	// A fixed-var spacer pushes record data well past the header so the
	// two never share a cache page in the crash tests below.
	if _, err := d.DefVar("pad", nctype.Double, []int{zdim}); err != nil {
		t.Fatal(err)
	}
	v, err := d.DefVar("v", nctype.Int, []int{tdim, ydim, xdim})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.EndDef(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < nrecs; r++ {
		vals := make([]int32, 6)
		for i := range vals {
			vals[i] = int32(r*100 + i)
		}
		if err := d.PutVara(v, []int64{int64(r), 0, 0}, []int64{1, 2, 3}, vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), store.Data...)
}

// recVar is the record variable's ID in files built by buildRecordFile.
const recVar = 1

// shortStore is a MemStore that moves at most half of each transfer and
// reports the short count with a nil error, as a caller-supplied backend may.
type shortStore struct {
	MemStore
	shorts int
}

func (s *shortStore) ReadAt(p []byte, off int64) (int, error) {
	if len(p) > 1 {
		p, s.shorts = p[:len(p)/2], s.shorts+1
	}
	return s.MemStore.ReadAt(p, off)
}

func (s *shortStore) WriteAt(p []byte, off int64) (int, error) {
	if len(p) > 1 {
		p, s.shorts = p[:len(p)/2], s.shorts+1
	}
	return s.MemStore.WriteAt(p, off)
}

// TestShortCountStoreRoundTrip: every store access must survive a backend
// that returns short counts with nil errors (the regression the
// readFull/writeFull sweep fixed — the page cache and header probe used to
// trust the first count they got).
func TestShortCountStoreRoundTrip(t *testing.T) {
	store := &shortStore{}
	d, err := Create(store, nctype.Clobber)
	if err != nil {
		t.Fatal(err)
	}
	tdim, _ := d.DefDim("time", 0)
	xdim, _ := d.DefDim("x", 37)
	v, _ := d.DefVar("v", nctype.Double, []int{tdim, xdim})
	if err := d.EndDef(); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 5*37)
	for i := range want {
		want[i] = float64(i) * 1.5
	}
	if err := d.PutVara(v, []int64{0, 0}, []int64{5, 37}, want); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if store.shorts == 0 {
		t.Fatal("no short transfers were returned; test proves nothing")
	}
	r, err := Open(store, nctype.NoWrite)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 5*37)
	if err := r.GetVara(v, []int64{0, 0}, []int64{5, 37}, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("[%d] = %g, want %g (short count dropped bytes)", i, got[i], want[i])
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTransientStoreErrorsSurface: a transient fault that outlasts the
// resume budget — every read fails at its first unit — comes back as a
// permanent error, never as silent corruption or a panic: from Open, and
// from reads of an open dataset.
func TestTransientStoreErrorsSurface(t *testing.T) {
	pf := newPFSFile(t, buildRecordFile(t, 3))
	in := fault.New(fault.Config{Seed: 9, ReadErrRate: 1})
	pf.fs.SetFault(in)
	if _, err := Open(pf.store(), nctype.NoWrite); !errors.Is(err, fault.ErrRetriesExhausted) {
		t.Fatalf("open with every read failing: %v, want retries exhausted", err)
	}
	pf.fs.SetFault(nil)
	d, err := Open(pf.store(), nctype.NoWrite)
	if err != nil {
		t.Fatal(err)
	}
	pf.fs.SetFault(in)
	got := make([]int32, 6)
	failed := 0
	for r := int64(0); r < 3; r++ {
		err := d.GetVara(recVar, []int64{r, 0, 0}, []int64{1, 2, 3}, got)
		if err != nil {
			if !errors.Is(err, fault.ErrRetriesExhausted) {
				t.Fatalf("rec %d: %v, want retries exhausted", r, err)
			}
			failed++
			continue
		}
		for i, g := range got {
			if g != int32(r*100+int64(i)) {
				t.Fatalf("rec %d[%d] = %d: fault leaked corruption into a successful read", r, i, g)
			}
		}
	}
	if failed == 0 {
		t.Fatal("no record read reached the store; test proves nothing")
	}
}

// TestCrashDuringHeaderCommitSweep arms a crash point at every byte class
// the header-commit protocol touches and checks the invariant the protocol
// guarantees: the abandoned file always opens as either the old or the new
// header — never a torn in-between — and the validator classifies it
// without panicking.
func TestCrashDuringHeaderCommitSweep(t *testing.T) {
	base := buildRecordFile(t, 2)
	hdr, err := cdf.Decode(base)
	if err != nil {
		t.Fatal(err)
	}
	hdrLen := hdr.EncodedSize()
	// Crash bytes: inside the magic, inside NumRecs, across the header
	// body, at the journal region past EOF, and inside record data.
	crashes := []int64{0, 1, 3, 4, 5, 7, hdrLen / 2, hdrLen - 1, hdrLen,
		int64(len(base)) - 1, int64(len(base)) + 8}
	for _, at := range crashes {
		at := at
		t.Run(fmt.Sprintf("crash@%d", at), func(t *testing.T) {
			in := fault.New(fault.Config{Seed: 1})
			pf := newPFSFile(t, base)
			pf.fs.SetFault(in)
			d, err := Open(pf.store(), nctype.Write)
			if err != nil {
				t.Fatal(err)
			}
			d.cache = newPageCache(d.store, 512, 16)
			// Grow the file by two records, then crash during the sync.
			vals := []int32{7, 7, 7, 7, 7, 7}
			for r := int64(2); r < 4; r++ {
				if err := d.PutVara(recVar, []int64{r, 0, 0}, []int64{1, 2, 3}, vals); err != nil {
					t.Fatal(err)
				}
			}
			// truncateFile=false: a torn in-place write. Already-durable
			// bytes (the step-1 journal) survive the crash.
			in.ArmCrash(at, false)
			syncErr := d.Sync()
			if syncErr != nil && !errors.Is(syncErr, fault.ErrCrashed) {
				t.Fatalf("sync failed for a non-injected reason: %v", syncErr)
			}
			// Abandon the handle (the process died); inspect the wreckage.
			img := pf.image(t)
			r, err := Open(&MemStore{Data: img}, nctype.NoWrite)
			if err != nil {
				t.Fatalf("crashed file does not open as old or new header: %v", err)
			}
			nrecs := r.NumRecs()
			if nrecs != 2 && nrecs != 4 {
				t.Fatalf("NumRecs = %d after crash, want old (2) or new (4)", nrecs)
			}
			got := make([]int32, 6)
			for rec := int64(0); rec < nrecs; rec++ {
				if err := r.GetVara(recVar, []int64{rec, 0, 0}, []int64{1, 2, 3}, got); err != nil {
					t.Fatalf("read rec %d of crashed file: %v", rec, err)
				}
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			// The offline validator must classify the image, not panic.
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("CheckFile panicked on crashed image: %v", p)
					}
				}()
				img2 := pf.image(t)
				if _, _, err := cdf.CheckFile(img2); err != nil {
					// A torn in-place header is a legal classification —
					// recovery must then find the journal.
					if rec := cdf.RecoverJournal(img2); rec == nil {
						t.Fatalf("header unreadable and no journal recoverable: %v", err)
					}
				}
			}()
		})
	}
}

// TestRecoveredFileRepairsInPlaceHeader: opening a crash-torn file in
// write mode must rewrite the in-place header from the journal so later
// readers need no recovery.
func TestRecoveredFileRepairsInPlaceHeader(t *testing.T) {
	base := buildRecordFile(t, 2)
	in := fault.New(fault.Config{Seed: 1})
	pf := newPFSFile(t, base)
	pf.fs.SetFault(in)
	d, err := Open(pf.store(), nctype.Write)
	if err != nil {
		t.Fatal(err)
	}
	d.cache = newPageCache(d.store, 512, 16)
	vals := []int32{9, 9, 9, 9, 9, 9}
	if err := d.PutVara(recVar, []int64{2, 0, 0}, []int64{1, 2, 3}, vals); err != nil {
		t.Fatal(err)
	}
	in.ArmCrash(5, false) // tear the in-place header mid-body
	if err := d.Sync(); !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("sync: %v, want crash", err)
	}
	img := pf.image(t)
	if _, err := cdf.Decode(img); err == nil {
		t.Fatal("crash at byte 5 should have torn the in-place header")
	}
	// Write-mode open recovers from the journal and repairs in place.
	repaired := &MemStore{Data: img}
	d2, err := Open(repaired, nctype.Write)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cdf.Decode(repaired.Data); err != nil {
		t.Fatalf("in-place header still torn after write-mode open: %v", err)
	}
}

// TestFirstCommitCrashSweep is the serial library's half of the sweep in
// internal/integration: crash points in the commit Create→EndDef runs against
// the store it has just truncated. There is no old header, so no journal; the
// wreck has no magic and no journal and does not open, or it is the complete
// new header over a store of the size it declares.
func TestFirstCommitCrashSweep(t *testing.T) {
	for _, at := range []int64{0, 2, 3, 4, 5, 40, 100, 200, 4096, 1 << 20} {
		for _, truncate := range []bool{false, true} {
			in := fault.New(fault.Config{Seed: 1})
			pf := newPFSFile(t, []byte("left over from the file Create clobbers"))
			pf.fs.SetFault(in)
			d, err := Create(pf.store(), nctype.Clobber)
			if err != nil {
				t.Fatal(err)
			}
			tdim, _ := d.DefDim("time", 0)
			xdim, _ := d.DefDim("x", 16)
			if _, err := d.DefVar("grid", nctype.Int, []int{xdim}); err != nil {
				t.Fatal(err)
			}
			if _, err := d.DefVar("v", nctype.Double, []int{tdim, xdim}); err != nil {
				t.Fatal(err)
			}
			in.ArmCrash(at, truncate)
			if err := d.EndDef(); err != nil && !errors.Is(err, fault.ErrCrashed) {
				t.Fatalf("crash@%d: EndDef failed for a non-injected reason: %v", at, err)
			}
			// Abandon the handle (the process died); inspect the wreckage.
			img := pf.image(t)
			h, issues, err := cdf.CheckFile(append([]byte(nil), img...))
			if err == nil {
				if len(issues) != 0 || len(h.Vars) != 2 || int64(len(img)) != h.FileSize() {
					t.Fatalf("crash@%d truncate=%v: a header was published over a %d-byte store: %d vars, declares %d bytes, issues %v",
						at, truncate, len(img), len(h.Vars), h.FileSize(), issues)
				}
				continue
			}
			if cdf.RecoverJournal(img) != nil {
				t.Fatalf("crash@%d truncate=%v: a first commit left a journal behind", at, truncate)
			}
			_, err = Open(&MemStore{Data: img}, nctype.NoWrite)
			if !errors.Is(err, nctype.ErrNotNC) && !(at == 3 && errors.Is(err, nctype.ErrVersion)) {
				t.Fatalf("crash@%d truncate=%v: opened a store whose creation never completed: %v", at, truncate, err)
			}
		}
	}
}
