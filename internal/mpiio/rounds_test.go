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
	"pnetcdf/internal/span"
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
	view, err := mpitype.Subarray([]int64{blocks, stride}, []int64{blocks, blockLen}, []int64{0, 0}, 1)
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

// TestReadReplyLegAgreesNothing: a round enters one allreduce — the request
// leg's message counts, which also carry the verdict on an earlier round —
// and the reply leg none, since every rank knows whom it will hear from. A
// collective of R rounds enters exactly the plan's allreduce, R exchanges and
// one closing agreement, read and write alike: 34 allreduces at 32 rounds,
// where a separate agreement per round made it 65 (and a reply leg that
// agreed its own counts, 97 on the read side).
func TestReadReplyLegAgreesNothing(t *testing.T) {
	write, read, ar, rounds := readWriteCollectives(t)
	if rounds < 8 {
		t.Fatalf("only %d rounds; the shape no longer forces many", rounds)
	}
	if read != write {
		t.Errorf("read entered %d collectives, write %d — a read round must cost what a write round does", read, write)
	}
	if want := (1 + rounds + 1) * ar; read != want {
		t.Errorf("read of %d rounds entered %d collectives (allreduce = %d); want plan + %d exchanges + 1 closing agreement = %d",
			rounds, read, ar, rounds, want)
	}
}

// The failure-placement worlds below: 4 ranks, cb_nodes=2 (aggregators at
// ranks 0 and 2) and a stripe of one cb_buffer_size window, so a collective
// over 2·failRounds windows gives each aggregator a domain of failRounds
// rounds, window w being domain w / failRounds, round w % failRounds.
const (
	failProcs  = 4
	failRounds = 8
	failWindow = 4096
)

// failAt are the rounds a failure is placed in: the first, one in the
// middle, and the last two — on the write side the two whose outcomes only
// the closing agreement carries.
var failAt = []int64{0, failRounds/2 - 1, failRounds - 2, failRounds - 1}

func failFS() *pfs.FS {
	cfg := pfs.BlueHorizon()
	cfg.StripeSize = failWindow
	return pfs.New(cfg)
}

func failHints() *mpi.Info {
	return mpi.NewInfo().Set("cb_buffer_size", fmt.Sprint(failWindow)).Set("cb_nodes", "2")
}

// allreduceCost returns what one allreduce costs the calling rank in
// messages it sends and in primitive collectives.
func allreduceCost(c *mpi.Comm, st *iostat.Stats) (msgs, colls int64) {
	m0, c0 := st.Get(iostat.MPIMsgsSent), st.Get(iostat.MPICollectives)
	c.AllreduceI64([]int64{0}, mpi.OpSum)
	return st.Get(iostat.MPIMsgsSent) - m0, st.Get(iostat.MPICollectives) - c0
}

// imageOf reads the first n bytes of a pfs file (zeros past its end).
func imageOf(fsys *pfs.FS, name string, n int64) ([]byte, error) {
	pf, _, err := fsys.Open(name, 0)
	if err != nil {
		return nil, err
	}
	img := make([]byte, n)
	_, err = pf.ReadAt(0, img[:min(n, pf.Size())], 0)
	return img, err
}

// TestWriteRoundFailureVerdict: aggregator rank 2's write fails for good in
// round k — a crash point at the start of its round-k window — for each k of
// failAt. Round k's verdict rides on round k+1's exchange, or on the closing
// agreement when k = R−1. Checked per k:
//   - every rank returns: rank 2 its ErrCrashed, the others ErrPeerFailed;
//   - the exchange that carries the failed verdict delivers nothing: each
//     rank's mpi_msgs_sent is its allreduce cost times the allreduces entered
//     (plan, exchanges up to the verdict, closing agreement if reached) plus
//     its exchange messages of the delivered rounds only;
//   - nothing is left open: no span is, and the file holds exactly rounds
//     0..k — round k+1 is packed but never delivered or written — minus the
//     crashed window;
//   - the handle is reusable: the next write succeeds everywhere and leaves
//     the exact image.
func TestWriteRoundFailureVerdict(t *testing.T) {
	const block = failWindow / failProcs // one block of every rank per window
	const windows = 2 * failRounds
	view, err := mpitype.Subarray([]int64{windows, failProcs * block}, []int64{windows, block}, []int64{0, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := func(rank, gen int) []byte {
		b := make([]byte, windows*block)
		for i := range b {
			b[i] = byte(1 + (gen*31+rank*7+i)%251)
		}
		return b
	}
	window := func(w, gen int) []byte {
		var out []byte
		for r := 0; r < failProcs; r++ {
			out = append(out, data(r, gen)[w*block:(w+1)*block]...)
		}
		return out
	}
	for _, k := range failAt {
		t.Run(fmt.Sprintf("round%d", k), func(t *testing.T) {
			fsys := failFS()
			inj := fault.New(fault.Config{Seed: 1})
			fsys.SetFault(inj)
			errs := make([]error, failProcs)
			var img []byte
			runWorld(t, failProcs, func(c *mpi.Comm) error {
				me := c.Rank()
				st := iostat.New()
				c.Proc().SetStats(st)
				rec := span.NewRecorder(me, c.Proc().Clock)
				c.Proc().SetSpans(rec)
				f, err := Open(c, fsys, "wfail", ModeRdWr|ModeCreate, failHints())
				if err != nil {
					return err
				}
				if err := f.SetView(int64(me)*block, view); err != nil {
					return err
				}
				arMsgs, ar := allreduceCost(c, st)
				if me == 0 {
					inj.ArmCrash(int64(failRounds+k)*failWindow, false)
				}
				c.Barrier()
				m0, c0 := st.Get(iostat.MPIMsgsSent), st.Get(iostat.MPICollectives)
				errs[me] = f.WriteAtAll(0, data(me, 1))
				msgs, colls := st.Get(iostat.MPIMsgsSent)-m0, st.Get(iostat.MPICollectives)-c0
				// plan + exchanges 0..k+1, the last carrying the verdict; or
				// plan + all R exchanges + the closing agreement for k = R−1.
				allreduces, delivered := int64(1+failRounds+1), int64(failRounds)
				if k+1 < failRounds {
					allreduces, delivered = 1+k+2, k+1
				}
				perExchange := int64(2) // one message to each aggregator ...
				if me == 0 || me == 2 {
					perExchange = 1 // ... but its own, which is handed over
				}
				if want := allreduces*arMsgs + delivered*perExchange; msgs != want {
					return fmt.Errorf("rank %d: sent %d messages, want %d allreduces x %d + %d delivered exchanges x %d = %d",
						me, msgs, allreduces, arMsgs, delivered, perExchange, want)
				}
				if want := allreduces * ar; colls != want {
					return fmt.Errorf("rank %d: entered %d collectives, want %d allreduces x %d", me, colls, allreduces, ar)
				}
				if open := rec.Open(); open != 0 {
					return fmt.Errorf("rank %d: %d spans open after the failed write", me, open)
				}
				c.Barrier()
				if me == 0 {
					if img, err = imageOf(fsys, "wfail", windows*failWindow); err != nil {
						return err
					}
				}
				c.Barrier()
				if err := f.WriteAtAll(0, data(me, 2)); err != nil {
					return fmt.Errorf("rank %d: write after the failed one: %w", me, err)
				}
				return f.Close()
			})
			for r, err := range errs {
				if r == 2 && !errors.Is(err, fault.ErrCrashed) {
					t.Errorf("rank 2 (failed aggregator): %v, want its crash", err)
				}
				if r != 2 && !errors.Is(err, mpi.ErrPeerFailed) {
					t.Errorf("rank %d: %v, want ErrPeerFailed", r, err)
				}
			}
			for w := 0; w < windows; w++ {
				d, r := w/failRounds, int64(w%failRounds)
				want := make([]byte, failWindow)
				if r <= k && !(d == 1 && r == k) {
					want = window(w, 1)
				}
				if !bytes.Equal(img[w*failWindow:(w+1)*failWindow], want) {
					t.Errorf("after the failed write, window %d (domain %d round %d) is not what rounds 0..%d minus the crash leave", w, d, r, k)
				}
			}
			final, err := imageOf(fsys, "wfail", windows*failWindow)
			if err != nil {
				t.Fatal(err)
			}
			for w := 0; w < windows; w++ {
				if !bytes.Equal(final[w*failWindow:(w+1)*failWindow], window(w, 2)) {
					t.Fatalf("the write after the failed one left window %d wrong", w)
				}
			}
		})
	}
}

// readFailAllreduces is how many allreduces every rank enters in a read of
// the failure-placement worlds whose round k fails, depth rounds in flight:
// round k's verdict rides on round k+depth−1's exchange, so the collective
// stops after the plan and the exchanges 0..k+depth−1; a failure in the last
// depth−1 rounds has no later exchange, and the closing agreement, after
// all R exchanges, carries it.
func readFailAllreduces(k, depth int64) int64 {
	if k+depth-1 < failRounds {
		return 1 + k + depth
	}
	return 1 + failRounds + 1
}

// TestReadRoundPartialAggregatorFailure: aggregator rank 0's coverage read
// fails for good in round k, for each k of failAt, while aggregator rank 2
// reads its own round k (and every other round) fine — with 2, 4 and 8 (all)
// of the 8 read rounds in flight, set by the client cache (readDepth). The
// reply leg expects a fixed number of messages instead of agreeing it, so
// this is the case that would hang it — it must not start: round k's
// verdict rides on round k+depth−1's exchange (the closing agreement's, for
// the last depth−1 rounds), ahead of answer(k). Every rank returns (rank 0
// its own typed error, everyone else ErrPeerFailed) having entered exactly
// readFailAllreduces(k, depth) allreduces, and the handle stays usable. The
// failure is placed by byte: a crash point in rank 0's quarter of window k,
// which only aggregator 0's round-k coverage read covers.
func TestReadRoundPartialAggregatorFailure(t *testing.T) {
	closingOnly := 0 // cases whose round k < R−1 only the closing agreement carries
	for _, k := range failAt {
		t.Run(fmt.Sprintf("round%d", k), func(t *testing.T) {
			for _, depth := range []int64{2, 4, failRounds} {
				if k < failRounds-1 && k+depth-1 >= failRounds {
					closingOnly++
				}
				t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) { readRoundFailure(t, k, depth) })
			}
		})
	}
	if closingOnly == 0 {
		t.Error("no case fails a round before the last that only the closing agreement carries")
	}
}

// readRoundFailure is one case of TestReadRoundPartialAggregatorFailure.
func readRoundFailure(t *testing.T, k, depth int64) {
	const windows = 2 * failRounds
	cfg := failFS().Config()
	cfg.ClientCache = depth * failWindow
	if got := readDepth(failRounds, cfg.NumServers, cfg.ClientCache, failWindow); got != depth {
		t.Fatalf("a client cache of %d rounds keeps %d rounds in flight, want %d", depth, got, depth)
	}
	fsys := pfs.New(cfg)
	errs := make([]error, failProcs)
	runWorld(t, failProcs, func(c *mpi.Comm) error {
		me := c.Rank()
		st := iostat.New()
		c.Proc().SetStats(st)
		var segs []mpitype.Segment
		for w := int64(0); w < windows; w++ {
			if w == k { // domain 0, round k: a quarter window each
				segs = append(segs, mpitype.Segment{Off: w*failWindow + int64(me)*failWindow/failProcs, Len: failWindow / failProcs})
			} else {
				segs = append(segs, mpitype.Segment{Off: w*failWindow + int64(me), Len: 1})
			}
		}
		view, err := mpitype.FromSegments(segs, windows*failWindow)
		if err != nil {
			return err
		}
		f, err := Open(c, fsys, "partial", ModeRdWr|ModeCreate, failHints())
		if err != nil {
			return err
		}
		if err := f.SetView(0, view); err != nil {
			return err
		}
		want := bytes.Repeat([]byte{byte('a' + me)}, int(view.Size()))
		if err := f.WriteAtAll(0, want); err != nil {
			return err
		}
		_, ar := allreduceCost(c, st)
		if me == 0 {
			in := fault.New(fault.Config{Seed: 7})
			in.ArmCrash(k*failWindow+1, false)
			fsys.SetFault(in)
		}
		c.Barrier()
		got := make([]byte, len(want))
		c0 := st.Get(iostat.MPICollectives)
		errs[me] = f.ReadAtAll(0, got)
		allreduces := readFailAllreduces(k, depth)
		if colls := st.Get(iostat.MPICollectives) - c0; colls != allreduces*ar {
			return fmt.Errorf("rank %d: entered %d collectives, want %d allreduces x %d", me, colls, allreduces, ar)
		}
		c.Barrier()
		if me == 0 {
			fsys.SetFault(nil)
		}
		c.Barrier()
		if err := f.ReadAtAll(0, got); err != nil {
			return fmt.Errorf("rank %d: read after the failed one: %w", me, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("rank %d: read after the failed one returned wrong bytes", me)
		}
		return f.Close()
	})
	for r, err := range errs {
		if r == 0 && !errors.Is(err, fault.ErrCrashed) {
			t.Errorf("rank 0 (failed aggregator): %v, want the crash point", err)
		}
		if r != 0 && !errors.Is(err, mpi.ErrPeerFailed) {
			t.Errorf("rank %d: %v, want ErrPeerFailed", r, err)
		}
	}
}

// TestViewTypemapIsNotWrittenThrough: an access covering the whole view hands
// the filetype's own typemap down the stack as the request list (no copy is
// made between SetView and the file system; a displaced view travels with
// its displacement), so nothing below may write through it — collective
// rounds and the independent sieving paths leave it exactly as it was
// installed, at displacement 0 (core's fused views) and displaced (core's
// views relative to a variable, installed at its begin).
func TestViewTypemapIsNotWrittenThrough(t *testing.T) {
	for _, disp := range []int64{0, 1000} {
		viewNotWrittenThrough(t, disp)
	}
}

func viewNotWrittenThrough(t *testing.T, disp int64) {
	const ranks, blocks, blockLen = 4, 64, 96
	fsys := testFS()
	info := mpi.NewInfo().Set("cb_buffer_size", "4096").Set("cb_nodes", "2")
	runWorld(t, ranks, func(c *mpi.Comm) error {
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
		if err := f.SetView(disp, view); err != nil {
			return err
		}
		buf := bytes.Repeat([]byte{byte(c.Rank() + 1)}, blocks*blockLen)
		steps := []func() error{
			func() error { return f.WriteAtAll(0, buf) },
			func() error { return f.ReadAtAll(0, buf) },
			func() error { return writeAt(f, 0, buf) },
			func() error { return readAt(f, 0, buf) },
		}
		for i, step := range steps {
			if err := step(); err != nil {
				return err
			}
			for k, s := range view.Runs() {
				if s != before[k] {
					return fmt.Errorf("disp %d, rank %d: step %d changed typemap run %d from %v to %v", disp, c.Rank(), i, k, before[k], s)
				}
			}
		}
		return f.Close()
	})
}
