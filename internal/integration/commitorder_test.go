package integration

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"pnetcdf/internal/bench"
	"pnetcdf/internal/core"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/metashape"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
	"pnetcdf/internal/pfs"
	"pnetcdf/internal/span"
)

// rawWrites returns the pfs_write spans that no agg_write follows on their
// rank: the raw writes — header commit steps, numrecs publishes, relocation
// moves — in issue order.
func rawWrites(spans []span.Span) []span.Span {
	var out []span.Span
	for i, s := range spans {
		if s.Phase != span.PFSWrite {
			continue
		}
		if i+1 < len(spans) && spans[i+1].Phase == span.AggWrite {
			continue
		}
		out = append(out, s)
	}
	return out
}

// commitRun is what one parallel run left behind: per rank its spans and
// the span count at each phase boundary, and the pfs write calls of every
// rank.
type commitRun struct {
	spans      [][]span.Span // [rank]
	cuts       [][]int       // [rank] len(spans) at each phase boundary
	writeCalls int64
}

// runCommits runs body on ranks ranks of the SDSC model, recording every
// rank's spans and closing the dataset body returns, and returns the run
// and the file named name. body calls mark at each phase boundary.
func runCommits(t *testing.T, ranks int, name string,
	body func(c *mpi.Comm, fsys *pfs.FS, mark func()) (*core.Dataset, error)) (commitRun, []byte) {
	t.Helper()
	mach := bench.SDSCBlueHorizon()
	fsys := mach.NewFS()
	run := commitRun{spans: make([][]span.Span, ranks), cuts: make([][]int, ranks)}
	var mu sync.Mutex
	err := mpi.Run(ranks, mach.Net, func(c *mpi.Comm) error {
		c.Proc().SetStats(iostat.New())
		rec := span.NewRecorder(c.Rank(), c.Proc().Clock)
		c.Proc().SetSpans(rec)
		var cuts []int
		d, err := body(c, fsys, func() { cuts = append(cuts, len(rec.Spans())) })
		if err != nil {
			return err
		}
		if err := d.Close(); err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		run.spans[c.Rank()], run.cuts[c.Rank()] = rec.Spans(), cuts
		run.writeCalls += c.Proc().Stats().Get(iostat.PfsWriteCalls)
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return run, readPFSFile(t, fsys, name)
}

// checkSteps holds phase i of run (between cuts i and i+1, counted from 0)
// to its order: it has want raw writes, all the root's; the first ends no
// earlier than any write of any rank before the phase, and each later one
// no earlier than the one before it.
func checkSteps(t *testing.T, run commitRun, phase int, name string, want int) {
	t.Helper()
	var before float64
	for r, spans := range run.spans {
		from, to := run.cuts[r][2*phase], run.cuts[r][2*phase+1]
		for _, s := range spans[:from] {
			if s.Phase == span.PFSWrite {
				before = max(before, s.End)
			}
		}
		if raw := rawWrites(spans[from:to]); r > 0 && len(raw) > 0 {
			t.Errorf("%s: rank %d made %d raw writes; only the root writes the header", name, r, len(raw))
		}
	}
	root := run.cuts[0]
	steps := rawWrites(run.spans[0][root[2*phase]:root[2*phase+1]])
	if len(steps) != want {
		t.Fatalf("%s: %d raw writes, want %d", name, len(steps), want)
	}
	prev := before
	for i, s := range steps {
		if s.End < prev {
			t.Errorf("%s: step %d of %d (%d bytes at %d) ends at %.6f ms, before the %.6f ms the step before it ended",
				name, i+1, len(steps), s.Bytes, s.Off, s.End*1e3, prev*1e3)
		}
		prev = max(prev, s.End)
	}
}

// TestCommitStepsEndInOrder: a raw write goes behind (DESIGN.md §4), and
// a commit's steps still end in the order they were issued — a magic never
// lands before the body it closes, a publish never before the data it
// publishes. Five phases on 4 ranks of the SDSC model, each against the
// writes before it: the first commit of a one-stripe header (the Figure 6
// shape, plus a record variable), the numrecs publish of a record-growing
// put, a journaled Redef→EndDef that relocates both variables, and the first
// commit and a journaled recommit of the 4096-variable metadata header,
// which spans stripes. The one-stripe EndDef returns on the root in under a
// virtual millisecond, both files equal what the serial library writes
// through the same calls, and the file system sees one write call per raw
// write and per aggregator write.
func TestCommitStepsEndInOrder(t *testing.T) {
	const ranks = 4
	packed := mpi.NewInfo().Set("nc_var_align_size", "1") // the serial library's layout
	dims := [3]int64{32, 64, 64}
	const nx = 64
	tt := make([]float32, dims[0]*dims[1]*dims[2])
	for i := range tt {
		tt[i] = float32(i)
	}
	recs := make([]float32, 2*nx)
	for i := range recs {
		recs[i] = float32(-i)
	}
	history := strings.Repeat("recommitted; ", 24)
	define := func(d metashape.Definer) (ttID, recID int, err error) {
		z, _ := d.DefDim("Z", dims[0])
		y, _ := d.DefDim("Y", dims[1])
		x, _ := d.DefDim("X", dims[2])
		tdim, _ := d.DefDim("t", 0)
		if ttID, err = d.DefVar("tt", nctype.Float, []int{z, y, x}); err != nil {
			return
		}
		recID, err = d.DefVar("rec", nctype.Float, []int{tdim, x})
		return
	}

	// The first commit, the publish and the journaled recommit, one phase
	// each.
	var endDef float64 // the root's first EndDef
	a, aImg := runCommits(t, ranks, "a.nc", func(c *mpi.Comm, fsys *pfs.FS, mark func()) (*core.Dataset, error) {
		d, err := core.Create(c, fsys, "a.nc", nctype.Clobber, packed)
		if err != nil {
			return nil, err
		}
		ttID, recID, err := define(d)
		if err != nil {
			return nil, err
		}
		mark()
		t0 := c.Clock()
		if err := d.EndDef(); err != nil {
			return nil, err
		}
		if c.Rank() == 0 {
			endDef = c.Clock() - t0
		}
		mark()
		start, count := bench.Decompose(bench.PartZ, dims, ranks, c.Rank())
		n := dims[1] * dims[2]
		if err := d.PutVaraAll(ttID, start[:], count[:], tt[start[0]*n:(start[0]+count[0])*n]); err != nil {
			return nil, err
		}
		share := int64(nx / ranks)
		mine := make([]float32, 0, 2*share)
		for r := int64(0); r < 2; r++ {
			mine = append(mine, recs[r*nx+int64(c.Rank())*share:][:share]...)
		}
		mark()
		if err := d.PutVaraAll(recID, []int64{0, int64(c.Rank()) * share}, []int64{2, share}, mine); err != nil {
			return nil, err
		}
		mark()
		mark()
		if err := d.Redef(); err != nil {
			return nil, err
		}
		if err := d.PutAttr(netcdf.GlobalID, "history", nctype.Char, history); err != nil {
			return nil, err
		}
		if err := d.EndDef(); err != nil {
			return nil, err
		}
		mark()
		return d, nil
	})
	checkSteps(t, a, 0, "first commit of a one-stripe header", 2)
	checkSteps(t, a, 1, "numrecs publish", 1)
	checkSteps(t, a, 2, "journaled Redef→EndDef", 1+4) // tt and both records shift alike: one move, then the commit
	if endDef >= 1e-3 {
		t.Errorf("the one-stripe EndDef took %.6f ms on the root, want under 1 ms", endDef*1e3)
	}

	m := metashape.New(4096, 1)
	b, bImg := runCommits(t, ranks, "b.nc", func(c *mpi.Comm, fsys *pfs.FS, mark func()) (*core.Dataset, error) {
		d, err := core.Create(c, fsys, "b.nc", nctype.Bit64Offset, packed)
		if err != nil {
			return nil, err
		}
		if err := m.Define(d); err != nil {
			return nil, err
		}
		mark()
		if err := d.EndDef(); err != nil {
			return nil, err
		}
		mark()
		mark()
		if err := d.Redef(); err != nil {
			return nil, err
		}
		if err := d.PutAttr(netcdf.GlobalID, "history", nctype.Char, history); err != nil {
			return nil, err
		}
		if err := d.EndDef(); err != nil {
			return nil, err
		}
		mark()
		return d, nil
	})
	checkSteps(t, b, 0, "first commit of the 4096-variable header", 2)
	checkSteps(t, b, 1, "journaled Redef→EndDef of the 4096-variable header", 1+4) // every variable shifts alike: one move

	// The serial library's files, through the same calls.
	serial := func(name string, mode int, steps func(sd *netcdf.Dataset) []func() error) []byte {
		fsys := newFS()
		pf, t0 := fsys.Create(name, 0)
		sd, err := netcdf.Create(pfs.NewSerialFile(pf, t0), mode)
		if err != nil {
			t.Fatal(err)
		}
		for _, step := range append(steps(sd), sd.Close) {
			if err := step(); err != nil {
				t.Fatalf("serial %s: %v", name, err)
			}
		}
		return readPFSFile(t, fsys, name)
	}
	want := serial("a.nc", nctype.Clobber, func(sd *netcdf.Dataset) []func() error {
		ttID, recID, err := define(sd)
		if err != nil {
			t.Fatal(err)
		}
		return []func() error{
			sd.EndDef,
			func() error { return sd.PutVara(ttID, []int64{0, 0, 0}, dims[:], tt) },
			func() error { return sd.PutVara(recID, []int64{0, 0}, []int64{2, nx}, recs) },
			sd.Redef,
			func() error { return sd.PutAttr(netcdf.GlobalID, "history", nctype.Char, history) },
			sd.EndDef,
		}
	})
	if !bytes.Equal(aImg, want) {
		t.Errorf("a.nc: its %d bytes differ from the serial library's %d", len(aImg), len(want))
	}
	want = serial("b.nc", nctype.Bit64Offset, func(sd *netcdf.Dataset) []func() error {
		return []func() error{
			func() error { return m.Define(sd) },
			sd.EndDef,
			sd.Redef,
			func() error { return sd.PutAttr(netcdf.GlobalID, "history", nctype.Char, history) },
			sd.EndDef,
		}
	})
	if !bytes.Equal(bImg, want) {
		t.Errorf("b.nc: its %d bytes differ from the serial library's %d", len(bImg), len(want))
	}

	// One request per raw write and per aggregator write, as when raw
	// writes were written through: a.nc's 2 + 1 + 5 raw writes and 3 data
	// writes, b.nc's 2 + 5.
	if a.writeCalls != 11 || b.writeCalls != 7 {
		t.Errorf("pfs write calls: a.nc %d, b.nc %d; want 11 and 7", a.writeCalls, b.writeCalls)
	}
}
