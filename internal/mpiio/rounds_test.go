package mpiio

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pnetcdf/internal/fault"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/pfs"
)

// fileImage reads a whole pfs file.
func fileImage(t *testing.T, fsys *pfs.FS, name string) []byte {
	t.Helper()
	pf, _, err := fsys.Open(name, 0)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, pf.Size())
	if _, err := pfs.NewSerialFile(pf, 0).ReadAt(img, 0); err != nil {
		t.Fatal(err)
	}
	return img
}

// TestOverlappingCollectiveWriteHighestRankWins pins the overlap rule
// documented at WriteAtAll: when every rank writes the same bytes in one
// collective — through the same strided view — the file holds the highest
// rank's data, and the same image comes out of every configuration: two and
// eight ranks, one aggregator and one per rank (many rounds each). With an
// unstable sort in the aggregator the winner depended on the sort's
// internals.
func TestOverlappingCollectiveWriteHighestRankWins(t *testing.T) {
	const (
		blocks, blockLen, stride = 90, 100, 300
		disp                     = 7
	)
	view, err := mpitype.Vector(blocks, blockLen, stride, mpitype.Contig(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 8} {
		data := make([][]byte, p)
		for r := range data {
			data[r] = make([]byte, blocks*blockLen)
			rand.New(rand.NewSource(int64(100*p + r))).Read(data[r])
		}
		// What the file must hold: rank p-1's bytes at the view's positions.
		want := make([]byte, disp+(blocks-1)*stride+blockLen)
		for b := 0; b < blocks; b++ {
			copy(want[disp+b*stride:], data[p-1][b*blockLen:(b+1)*blockLen])
		}
		for _, nodes := range []int{1, p} {
			name := fmt.Sprintf("p%d/cb_nodes=%d", p, nodes)
			fsys := testFS()
			info := mpi.NewInfo().
				Set("cb_buffer_size", "4096").
				Set("cb_nodes", fmt.Sprint(nodes))
			runWorld(t, p, func(c *mpi.Comm) error {
				f, err := Open(c, fsys, "overlap", ModeRdWr|ModeCreate, info)
				if err != nil {
					return err
				}
				if err := f.SetView(disp, view); err != nil {
					return err
				}
				if err := f.WriteAtAll(0, data[c.Rank()]); err != nil {
					return err
				}
				return f.Close()
			})
			if got := fileImage(t, fsys, "overlap"); !bytes.Equal(got, want) {
				t.Errorf("%s: file does not hold rank %d's data", name, p-1)
			}
		}
	}
}

// readWriteCollectives runs one multi-round collective write and read of the
// same shape on 4 ranks and returns rank 0's mpi_collectives for each, the
// cost of one allreduce, and the round count.
func readWriteCollectives(t *testing.T) (write, read, allreduce, rounds int64) {
	t.Helper()
	fsys := testFS()
	info := mpi.NewInfo().Set("cb_buffer_size", "4096").Set("cb_nodes", "2")
	const per = 32 << 10
	runWorld(t, 4, func(c *mpi.Comm) error {
		st := iostat.New()
		c.Proc().SetStats(st)
		f, err := Open(c, fsys, "legs", ModeRdWr|ModeCreate, info)
		if err != nil {
			return err
		}
		if err := f.SetView(0, blockView(c.Rank(), 4, 4*per)); err != nil {
			return err
		}
		base := st.Get(iostat.MPICollectives)
		c.AllreduceI64([]int64{1}, mpi.OpSum)
		ar := st.Get(iostat.MPICollectives) - base
		data := bytes.Repeat([]byte{byte(c.Rank() + 1)}, per)
		base = st.Get(iostat.MPICollectives)
		if err := f.WriteAtAll(0, data); err != nil {
			return err
		}
		w := st.Get(iostat.MPICollectives) - base
		r0 := st.Get(iostat.IOTwoPhaseRounds)
		got := make([]byte, per)
		base = st.Get(iostat.MPICollectives)
		if err := f.ReadAtAll(0, got); err != nil {
			return err
		}
		r := st.Get(iostat.MPICollectives) - base
		if !bytes.Equal(got, data) {
			return fmt.Errorf("rank %d: round trip mismatch", c.Rank())
		}
		if c.Rank() == 0 {
			write, read, allreduce, rounds = w, r, ar, st.Get(iostat.IOTwoPhaseRounds)-r0
		}
		return f.Close()
	})
	return write, read, allreduce, rounds
}

// TestReadReplyLegAgreesNothing: a read round runs two agreements — the
// request leg's message counts and the round's error — like a write round.
// The reply leg used to run a third although every rank knows whom it will
// hear from; a read of R rounds now enters exactly as many collectives as
// the write of the same shape, R allreduces fewer than before.
func TestReadReplyLegAgreesNothing(t *testing.T) {
	write, read, ar, rounds := readWriteCollectives(t)
	if rounds < 8 {
		t.Fatalf("only %d rounds; the shape no longer forces many", rounds)
	}
	if read != write {
		t.Errorf("read entered %d collectives, write %d — a read round must cost what a write round does", read, write)
	}
	if read < 2*rounds*ar || read >= 3*rounds*ar {
		t.Errorf("read of %d rounds entered %d collectives (allreduce = %d); want two agreements per round plus the plan's",
			rounds, read, ar)
	}
}

// TestReadRoundPartialAggregatorFailure: one aggregator's read fails for
// good in some round of a collective whose other aggregator is healthy. The
// reply leg expects a fixed number of messages instead of agreeing it, so
// this is the case that would hang it — it must not start: the round's
// AgreeError comes first, every rank returns (the failed aggregator its own
// typed error, everyone else ErrPeerFailed), and the handle stays usable.
func TestReadRoundPartialAggregatorFailure(t *testing.T) {
	const n, per = 4, 64 << 10
	fsys := testFS()
	info := mpi.NewInfo().Set("cb_buffer_size", "4096").Set("cb_nodes", "2")
	errs := make([]error, n)
	runWorld(t, n, func(c *mpi.Comm) error {
		f, err := Open(c, fsys, "partial", ModeRdWr|ModeCreate, info)
		if err != nil {
			return err
		}
		if err := f.SetView(0, blockView(c.Rank(), n, n*per)); err != nil {
			return err
		}
		want := bytes.Repeat([]byte{byte('a' + c.Rank())}, per)
		if err := f.WriteAtAll(0, want); err != nil {
			return err
		}
		c.Barrier()
		if c.Rank() == 0 {
			// Each read attempt fails with probability 0.8 and is retried
			// 8 times: about one coverage read in eight fails for good.
			fsys.SetFault(fault.New(fault.Config{Seed: 7, ReadErrRate: 0.8, FaultUnit: 1 << 20}))
		}
		c.Barrier()
		got := make([]byte, per)
		errs[c.Rank()] = f.ReadAtAll(0, got)
		c.Barrier()
		if c.Rank() == 0 {
			fsys.SetFault(nil)
		}
		c.Barrier()
		if err := f.ReadAtAll(0, got); err != nil {
			return fmt.Errorf("rank %d: read after the failed one: %w", c.Rank(), err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("rank %d: read after the failed one returned wrong bytes", c.Rank())
		}
		return f.Close()
	})
	exhausted := 0
	for r, err := range errs {
		switch {
		case errors.Is(err, fault.ErrRetriesExhausted):
			exhausted++
		case errors.Is(err, mpi.ErrPeerFailed):
		default:
			t.Fatalf("rank %d: error %v, want retries exhausted or peer failed", r, err)
		}
	}
	if exhausted != 1 {
		t.Errorf("%d aggregators failed in the aborting round, want exactly one (the partial case)", exhausted)
	}
}

// TestViewTypemapIsNotWrittenThrough: an access covering the whole view hands
// the filetype's own typemap down the stack as the request list (no copy is
// made between SetView and the file system), so nothing below may write
// through it — collective rounds and the independent sieving paths leave it
// exactly as it was installed.
func TestViewTypemapIsNotWrittenThrough(t *testing.T) {
	const ranks, blocks, blockLen = 4, 64, 96
	fsys := testFS()
	info := mpi.NewInfo().Set("cb_buffer_size", "4096").Set("cb_nodes", "2")
	runWorld(t, ranks, func(c *mpi.Comm) error {
		// Absolute offsets, displacement 0: what core installs.
		var segs []mpitype.Segment
		for b := 0; b < blocks; b++ {
			segs = append(segs, mpitype.Segment{Off: int64((b*ranks+c.Rank())*blockLen + 5), Len: blockLen})
		}
		view, err := mpitype.FromSegments(segs, segs[blocks-1].Off+blockLen)
		if err != nil {
			return err
		}
		before := view.Segments()
		f, err := Open(c, fsys, "shared", ModeRdWr|ModeCreate, info)
		if err != nil {
			return err
		}
		if err := f.SetView(0, view); err != nil {
			return err
		}
		buf := bytes.Repeat([]byte{byte(c.Rank() + 1)}, blocks*blockLen)
		steps := []func() error{
			func() error { return f.WriteAtAll(0, buf) },
			func() error { return f.ReadAtAll(0, buf) },
			func() error { return f.WriteAt(0, buf) },
			func() error { return f.ReadAt(0, buf) },
		}
		for i, step := range steps {
			if err := step(); err != nil {
				return err
			}
			for k, s := range view.Runs() {
				if s != before[k] {
					return fmt.Errorf("rank %d: step %d changed typemap run %d from %v to %v", c.Rank(), i, k, before[k], s)
				}
			}
		}
		return f.Close()
	})
}
