package mpiio

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpiio/behindtest"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/pfs"
	"pnetcdf/internal/span"
)

// TestRoundScheduleLeavesOneFileImage: how a collective's rounds are
// scheduled — how many there are, which aggregator requests were settled
// behind a neighbouring round — may not show in the file. The same 4-rank
// interleaved write and read-back, at cb_buffer_size giving 1, 2, 3 and many
// rounds, with 1, 2 and 4 aggregators, must leave the one expected image;
// io_pipelined_rounds and io_overlap_ns are 0 when the plan has one round
// (the read settled at once, the write still in flight when the counters
// are read) and positive above it.
func TestRoundScheduleLeavesOneFileImage(t *testing.T) {
	const (
		ranks, block, nBlocks = 4, 1024, 64
		per                   = block * nBlocks
		total                 = ranks * per // 256 KiB
	)
	data := make([][]byte, ranks)
	want := make([]byte, total)
	for r := range data {
		data[r] = make([]byte, per)
		rand.New(rand.NewSource(int64(r) + 1)).Read(data[r])
		for b := 0; b < nBlocks; b++ {
			copy(want[(b*ranks+r)*block:], data[r][b*block:(b+1)*block])
		}
	}
	view, err := mpitype.Subarray([]int64{nBlocks, ranks * block}, []int64{nBlocks, block}, []int64{0, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pfs.BlueHorizon()
	cfg.StripeSize = 4096 // so that even file domains are total/cb_nodes wide
	for _, nodes := range []int{1, 2, 4} {
		domain := total / nodes
		for _, rounds := range []int{1, 2, 3, domain / 4096} {
			name := fmt.Sprintf("cb_nodes=%d/rounds=%d", nodes, rounds)
			fsys := pfs.New(cfg)
			info := mpi.NewInfo().
				Set("cb_buffer_size", fmt.Sprint((domain+rounds-1)/rounds)).
				Set("cb_nodes", fmt.Sprint(nodes))
			var mu sync.Mutex
			sum := map[iostat.Counter]int64{}
			runWorld(t, ranks, func(c *mpi.Comm) error {
				st := iostat.New()
				c.Proc().SetStats(st)
				f, err := Open(c, fsys, "img", ModeRdWr|ModeCreate, info)
				if err != nil {
					return err
				}
				if err := f.SetView(int64(c.Rank())*block, view); err != nil {
					return err
				}
				if err := f.WriteAtAll(0, data[c.Rank()]); err != nil {
					return err
				}
				got := make([]byte, per)
				if err := f.ReadAtAll(0, got); err != nil {
					return err
				}
				if !bytes.Equal(got, data[c.Rank()]) {
					return fmt.Errorf("rank %d: round trip mismatch", c.Rank())
				}
				mu.Lock()
				for _, k := range []iostat.Counter{iostat.IOPipelinedRounds, iostat.IOOverlapTimeNs} {
					sum[k] += st.Get(k)
				}
				if c.Rank() == 0 {
					sum[iostat.IOTwoPhaseRounds] = st.Get(iostat.IOTwoPhaseRounds) / 2 // per collective
				}
				mu.Unlock()
				return f.Close()
			})
			if got := fileImage(t, fsys, "img"); !bytes.Equal(got, want) {
				t.Errorf("%s: the file is not the expected image", name)
			}
			ran := sum[iostat.IOTwoPhaseRounds]
			if ran != int64(rounds) {
				t.Errorf("%s: each collective ran %d rounds", name, ran)
			}
			piped, overlap := sum[iostat.IOPipelinedRounds], sum[iostat.IOOverlapTimeNs]
			if ran == 1 && (piped != 0 || overlap != 0) {
				t.Errorf("%s: one round, yet io_pipelined_rounds = %d, io_overlap_ns = %d", name, piped, overlap)
			}
			if ran > 1 && (piped == 0 || overlap == 0) {
				t.Errorf("%s: %d rounds, yet io_pipelined_rounds = %d, io_overlap_ns = %d — nothing overlapped",
					name, ran, piped, overlap)
			}
		}
	}
}

// TestOneRoundCollectiveClassicSequence: a one-round plan has no neighbouring
// round to hide a request behind, so it is the classic two-phase sequence,
// at its cost in collectives: the plan's allreduce, the exchange's count
// allreduce and one error agreement, for a write and for a read (whose reply
// leg agrees nothing). The write is still in flight when the counters are
// read, so nothing has been credited to io_overlap_ns yet.
func TestOneRoundCollectiveClassicSequence(t *testing.T) {
	fsys := testFS()
	runWorld(t, 4, func(c *mpi.Comm) error {
		st := iostat.New()
		c.Proc().SetStats(st)
		f, err := Open(c, fsys, "one", ModeRdWr|ModeCreate, nil)
		if err != nil {
			return err
		}
		// Measured, not hardcoded: what one allreduce and one agreement
		// cost in primitive collectives.
		collectives := func(op func() error) (int64, error) {
			base := st.Get(iostat.MPICollectives)
			err := op()
			return st.Get(iostat.MPICollectives) - base, err
		}
		allreduce, _ := collectives(func() error { c.AllreduceI64([]int64{1}, mpi.OpSum); return nil })
		agree, err := collectives(func() error { return c.AgreeError(nil) })
		if err != nil {
			return err
		}
		buf := make([]byte, 4096)
		for _, op := range []func(int64, []byte) error{f.WriteAtAll, f.ReadAtAll} {
			n, err := collectives(func() error { return op(int64(c.Rank())*4096, buf) })
			if err != nil {
				return err
			}
			if want := 2*allreduce + agree; n != want {
				return fmt.Errorf("rank %d: a one-round write, then read, entered %d collectives, want %d each", c.Rank(), n, want)
			}
		}
		if st.Get(iostat.IOTwoPhaseRounds) != 2 {
			return fmt.Errorf("rank %d: %d rounds over two collectives, want one each", c.Rank(), st.Get(iostat.IOTwoPhaseRounds))
		}
		for _, k := range []iostat.Counter{iostat.IOPipelinedRounds, iostat.IOOverlapTimeNs} {
			if got := st.Get(k); got != 0 {
				return fmt.Errorf("rank %d: one-round collectives recorded %s = %d", c.Rank(), k, got)
			}
		}
		return f.Close()
	})
}

// TestClockCoversEveryRequest: a request moves its bytes before it returns,
// but the rank clock takes the request's virtual end only where it is
// settled, so a settle that is skipped leaks nothing and shows only as a
// clock that runs behind the file system. Over 1, 2 and many rounds, one
// aggregator and two: a read's clock covers every request when the
// collective returns, and every agg_read span ends at or past its request's
// end; a write is a write behind, so its agg_write span ends exactly when
// its bytes have left the link, and the write-behind contract
// (behindtest.Check) holds after Sync and again after Close — the clock is
// past every request, the bytes in flight stay within the client cache, and
// a rank's writes never share its link. The cache holds one round, so every
// round but the first settles an older one before it is issued.
func TestClockCoversEveryRequest(t *testing.T) {
	const (
		ranks, block, nBlocks = 4, 1024, 64
		per                   = block * nBlocks
		total                 = ranks * per // 256 KiB
	)
	view, err := mpitype.Subarray([]int64{nBlocks, ranks * block}, []int64{nBlocks, block}, []int64{0, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pfs.BlueHorizon()
	cfg.StripeSize = 4096 // so that even file domains are total/cb_nodes wide
	for _, nodes := range []int{1, 2} {
		domain := total / nodes
		for _, rounds := range []int{1, 2, domain / 4096} {
			name := fmt.Sprintf("cb_nodes=%d/rounds=%d", nodes, rounds)
			cbbuf := int64(domain / rounds)
			cfg.ClientCache = cbbuf
			fsys := pfs.New(cfg)
			info := mpi.NewInfo().
				Set("cb_buffer_size", fmt.Sprint(cbbuf)).
				Set("cb_nodes", fmt.Sprint(nodes))
			var mu sync.Mutex
			var synced, closed []span.Span
			p := [2]behindtest.Params{} // after Sync, after Close
			for i := range p {
				p[i] = behindtest.Params{NetLatency: cfg.NetLatency, ClientBW: cfg.ClientBW,
					Cache: cfg.ClientCache, Drained: map[int]float64{}}
			}
			var aggWrites, aggReads atomic.Int64
			runWorld(t, ranks, func(c *mpi.Comm) error {
				rec := span.NewRecorder(c.Rank(), c.Proc().Clock)
				c.Proc().SetSpans(rec)
				f, err := Open(c, fsys, "clock", ModeRdWr|ModeCreate, info)
				if err != nil {
					return err
				}
				if err := f.SetView(int64(c.Rank())*block, view); err != nil {
					return err
				}
				buf := make([]byte, per)
				if err := f.WriteAtAll(0, buf); err != nil {
					return err
				}
				n0 := len(rec.Spans())
				if err := f.ReadAtAll(0, buf); err != nil {
					return err
				}
				clock, reqEnd := c.Proc().Clock(), 0.0
				for _, s := range rec.Spans()[n0:] {
					switch s.Phase {
					case span.PFSRead:
						if s.End > clock {
							return fmt.Errorf("%s: rank %d returned from a read at %g, before its request ending at %g",
								name, c.Rank(), clock, s.End)
						}
						reqEnd = max(reqEnd, s.End)
					case span.AggRead:
						if reqEnd == 0 || s.End < reqEnd {
							return fmt.Errorf("%s: rank %d's agg_read span of round %d ends at %g, its request at %g",
								name, c.Rank(), s.Round, s.End, reqEnd)
						}
						reqEnd = 0
						aggReads.Add(1)
					}
				}
				if err := f.Sync(); err != nil {
					return err
				}
				syncClock, nSync := c.Proc().Clock(), len(rec.Spans())
				if err := f.WriteAtAll(0, buf); err != nil {
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
				ss := rec.Spans()
				var req span.Span
				for _, s := range ss {
					switch s.Phase {
					case span.PFSWrite:
						req = s
					case span.AggWrite:
						aggWrites.Add(1)
						if left := req.Start + cfg.NetLatency + float64(req.Bytes)/cfg.ClientBW; s.Start != req.Start || s.End != left {
							return fmt.Errorf("%s: rank %d's agg_write span of round %d is [%g, %g], its request left the link over [%g, %g]",
								name, c.Rank(), s.Round, s.Start, s.End, req.Start, left)
						}
					}
				}
				mu.Lock()
				defer mu.Unlock()
				synced = append(synced, ss[:nSync]...)
				closed = append(closed, ss...)
				p[0].Drained[c.Rank()], p[1].Drained[c.Rank()] = syncClock, c.Proc().Clock()
				return nil
			})
			if got, want := aggWrites.Load(), int64(2*nodes*rounds); got != want {
				t.Errorf("%s: %d agg_write spans, want %d (one per aggregator per round)", name, got, want)
			}
			if got, want := aggReads.Load(), int64(nodes*rounds); got != want {
				t.Errorf("%s: %d agg_read spans, want %d (one per aggregator per round)", name, got, want)
			}
			for i, ss := range [][]span.Span{synced, closed} {
				for _, e := range behindtest.Check(ss, p[i]) {
					t.Errorf("%s: %s", name, e)
				}
			}
		}
	}
}

// TestFallbackAgreesExactlyOnce: with collective buffering disabled the
// fallback does independent I/O plus EXACTLY one collective — the error
// agreement. Write and read funnel through the same fallbackIndependent
// helper, so their collective counts must match; a second hidden agreement
// (the historical asymmetry) would show up as a delta of 2.
func TestFallbackAgreesExactlyOnce(t *testing.T) {
	fsys := testFS()
	info := mpi.NewInfo().
		Set("romio_cb_write", "disable").
		Set("romio_cb_read", "disable").
		// Sieving off so the independent path does plain I/O with no
		// surprises in the counter delta.
		Set("romio_ds_read", "disable").
		Set("romio_ds_write", "disable")
	runWorld(t, 4, func(c *mpi.Comm) error {
		st := iostat.New()
		c.Proc().SetStats(st)
		f, err := Open(c, fsys, "fb", ModeRdWr|ModeCreate, info)
		if err != nil {
			return err
		}
		buf := bytes.Repeat([]byte{byte(c.Rank() + 1)}, 4096)
		// One AgreeError costs a fixed number of primitive collectives
		// (reduce + bcast); measure it rather than hardcoding.
		base := st.Get(iostat.MPICollectives)
		if err := c.AgreeError(nil); err != nil {
			return err
		}
		agreeCost := st.Get(iostat.MPICollectives) - base
		base = st.Get(iostat.MPICollectives)
		if err := f.WriteAtAll(int64(c.Rank())*4096, buf); err != nil {
			return err
		}
		if d := st.Get(iostat.MPICollectives) - base; d != agreeCost {
			return fmt.Errorf("rank %d: cb_write=disable fallback used %d collectives, want one agreement (%d)", c.Rank(), d, agreeCost)
		}
		got := make([]byte, 4096)
		base = st.Get(iostat.MPICollectives)
		if err := f.ReadAtAll(int64(c.Rank())*4096, got); err != nil {
			return err
		}
		if d := st.Get(iostat.MPICollectives) - base; d != agreeCost {
			return fmt.Errorf("rank %d: cb_read=disable fallback used %d collectives, want one agreement (%d)", c.Rank(), d, agreeCost)
		}
		if !bytes.Equal(got, buf) {
			return fmt.Errorf("rank %d: fallback round trip mismatch", c.Rank())
		}
		return f.Close()
	})
}

// TestRoundTagsStayInBand: exchange tags are derived from the round index
// in a reserved band; a plan big enough to need many rounds must keep every
// tag below the band limit (roundTag panics otherwise, so surviving the run
// with multiple rounds is the assertion).
func TestRoundTagsStayInBand(t *testing.T) {
	if got := roundTag(0, 0); got != collTagBase {
		t.Fatalf("roundTag(0,0) = %d, want %d", got, collTagBase)
	}
	if got := roundTag(7, 1); got != collTagBase+15 {
		t.Fatalf("roundTag(7,1) = %d, want %d", got, collTagBase+15)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("roundTag past the reserved band did not panic")
		}
	}()
	roundTag((collTagLimit-collTagBase)/2, 1)
}
