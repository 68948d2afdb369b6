package integration

import (
	"fmt"
	"slices"
	"testing"

	"pnetcdf/internal/bench"
	"pnetcdf/internal/core"
	"pnetcdf/internal/metashape"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
	"pnetcdf/internal/pfs"
	"pnetcdf/internal/span"
)

// pfsReads lists the (offset, length) of every pfs read a recorder holds.
func pfsReads(r *span.Recorder) [][2]int64 {
	var out [][2]int64
	for _, s := range r.Spans() {
		if s.Phase == span.PFSRead {
			out = append(out, [2]int64{s.Off, s.Bytes})
		}
	}
	return out
}

// TestMetadataPhaseLedger pins where the metadata path's virtual time goes:
// 8 ranks on the SDSC model create a dataset of 4096 variables, define it,
// commit it, close it, reopen it, look every variable up and close it again
// — one operation of the metadata benchmark. The slowest rank's clock after
// each phase may not rise above its pinned value. The header commit is
// written behind, so the wait for its magic is Close's, not EndDef's; the
// two together may not rise above the 25.047 ms EndDef and Close took when
// the commit was written through, so the move cannot hide a rise. The open
// costs the root two header reads, of exactly the header's bytes, and the
// serial library opening the same file makes the same two.
func TestMetadataPhaseLedger(t *testing.T) {
	const nranks, path = 8, "meta.nc"
	mach := bench.SDSCBlueHorizon()
	fsys := mach.NewFS()
	m := metashape.New(4096, 1)
	phases := []struct {
		name string
		max  float64 // seconds of virtual time on the slowest rank
	}{
		{"Create", 6.181e-3},
		{"define", 0},
		{"EndDef", 18.530e-3}, // 24.686 ms when the commit was written through
		{"Close", 6.396e-3},   // 0.361 ms then: the magic's wait is here now
		{"Open", 15.003e-3},   // 19.144 ms when the header took three reads
		{"lookups", 0},
		{"Close after the lookups", 0.101e-3},
	}
	clocks := make([][]float64, nranks) // [rank] clock after each phase
	open := span.NewRecorder(0, nil)
	var hdrLen int64
	err := mpi.Run(nranks, mach.Net, func(c *mpi.Comm) error {
		var at []float64
		mark := func(err error) error {
			at = append(at, c.Clock())
			return err
		}
		d, err := core.Create(c, fsys, path, nctype.Bit64Offset, nil)
		if err := mark(err); err != nil {
			return err
		}
		if err := mark(m.Define(d)); err != nil {
			return err
		}
		if err := mark(d.EndDef()); err != nil {
			return err
		}
		if err := mark(d.Close()); err != nil {
			return err
		}
		if c.Rank() == 0 {
			c.Proc().SetSpans(open)
		}
		d, err = core.Open(c, fsys, path, nctype.NoWrite, nil)
		c.Proc().SetSpans(nil)
		if err := mark(err); err != nil {
			return err
		}
		for i, name := range m.Names {
			if v := d.VarID(name); v != i {
				return fmt.Errorf("rank %d: VarID(%s) = %d, want %d", c.Rank(), name, v, i)
			}
		}
		if c.Rank() == 0 {
			hdrLen = d.Header().EncodedSize()
		}
		if err := mark(nil); err != nil {
			return err
		}
		if err := mark(d.Close()); err != nil {
			return err
		}
		clocks[c.Rank()] = at
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	const commitMax = 25.047e-3 // EndDef + Close
	prev, commit := 0.0, 0.0
	for i, p := range phases {
		end := 0.0
		for r := range clocks {
			end = max(end, clocks[r][i])
		}
		took := end - prev
		if took > p.max+1e-9 {
			t.Errorf("%s took %.6f ms on the slowest rank, want at most %.3f ms", p.name, took*1e3, p.max*1e3)
		}
		if p.name == "EndDef" || p.name == "Close" {
			commit += took
		}
		prev = end
	}
	if commit > commitMax+1e-9 {
		t.Errorf("EndDef and Close took %.6f ms together, want at most %.3f ms", commit*1e3, commitMax*1e3)
	}

	reads := pfsReads(open)
	if len(reads) != 2 || reads[1][0]+reads[1][1] != hdrLen {
		t.Fatalf("the root's open read %v, want 2 reads ending at the header's end, byte %d", reads, hdrLen)
	}
	pf, _, err := fsys.Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	serial := span.NewRecorder(0, nil)
	pf.SetSpans(serial)
	if _, err := netcdf.Open(pfs.NewSerialFile(pf, 0), nctype.NoWrite); err != nil {
		t.Fatal(err)
	}
	if s := pfsReads(serial); !slices.Equal(s, reads) {
		t.Fatalf("the serial library's open read %v, the parallel root's %v", s, reads)
	}
}
