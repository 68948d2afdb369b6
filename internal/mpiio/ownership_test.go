package mpiio

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"pnetcdf/internal/bufpool"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpitype"
)

// TestSparseExchangeHandsBuffersOver pins the custody rule of recycleRound:
// after sparseExchange the sender holds nothing it packed (every sent slot
// of parts is nil, the self slot included), and what a receiver gets is the
// sender's pooled buffer itself, not a copy.
func TestSparseExchangeHandsBuffersOver(t *testing.T) {
	const p = 5
	// sent[src][dst] is the array src packed for dst. Written before the
	// exchange, read by dst after it: the message delivery orders the two.
	var sent [p][p]*byte
	runWorld(t, p, func(c *mpi.Comm) error {
		me := c.Rank()
		parts := make([][]byte, p)
		for dst := 0; dst < p; dst++ {
			if (me+dst)%3 == 0 && dst != me {
				continue // a sparse pattern: some pairs exchange nothing
			}
			b := bufpool.GetDirty(4096 + dst)
			for i := range b {
				b[i] = byte(me*16 + dst)
			}
			parts[dst] = b
			sent[me][dst] = &b[0]
		}
		out := make([][]byte, p)
		if err := sparseExchange(c, nil, parts, out, make([]int64, p), nil, roundTag(0, 0), nil); err != nil {
			return err
		}
		for dst, slot := range parts {
			if slot != nil {
				return fmt.Errorf("rank %d: parts[%d] still holds a buffer after the exchange", me, dst)
			}
		}
		for src, blob := range out {
			skipped := (src+me)%3 == 0 && src != me
			if skipped != (blob == nil) {
				return fmt.Errorf("rank %d: message from %d present=%v, want %v", me, src, blob != nil, !skipped)
			}
			if blob == nil {
				continue
			}
			if len(blob) != 4096+me || blob[0] != byte(src*16+me) || blob[len(blob)-1] != byte(src*16+me) {
				return fmt.Errorf("rank %d: wrong message from %d", me, src)
			}
			if &blob[0] != sent[src][me] {
				return fmt.Errorf("rank %d: message from %d is a copy, not the sender's buffer", me, src)
			}
		}
		recycleRound(out)
		return nil
	})
}

// TestSparseExchangeFailedVerdictDeliversNothing: the count allreduce is also
// the verdict on an earlier round. When one rank brings a failed outcome,
// every rank learns it from that reduction, before any send: the failing rank
// gets its own error back and the others mpi.ErrPeerFailed, no message moves
// (mpi_msgs_sent grows by the allreduce's own messages only), out stays empty,
// and the packed parts went back to the pool (every slot nil).
func TestSparseExchangeFailedVerdictDeliversNothing(t *testing.T) {
	const p, failing = 5, 3
	errRound := errors.New("round failed on rank 3")
	runWorld(t, p, func(c *mpi.Comm) error {
		me := c.Rank()
		st := iostat.New()
		c.Proc().SetStats(st)
		counts := make([]int64, p)
		c.AllreduceI64(counts, mpi.OpSum)
		allreduceMsgs := st.Get(iostat.MPIMsgsSent)
		parts, out := make([][]byte, p), make([][]byte, p)
		for dst := range parts {
			parts[dst] = bufpool.GetDirty(512)
		}
		var pending error
		if me == failing {
			pending = errRound
		}
		base := st.Get(iostat.MPIMsgsSent)
		err := sparseExchange(c, nil, parts, out, counts, pending, roundTag(0, 0), nil)
		switch {
		case me == failing && err != errRound:
			return fmt.Errorf("rank %d: verdict %v, want its own error", me, err)
		case me != failing && !errors.Is(err, mpi.ErrPeerFailed):
			return fmt.Errorf("rank %d: verdict %v, want ErrPeerFailed", me, err)
		}
		if sent := st.Get(iostat.MPIMsgsSent) - base; sent != allreduceMsgs {
			return fmt.Errorf("rank %d: sent %d messages, the allreduce alone sends %d", me, sent, allreduceMsgs)
		}
		for i := range parts {
			if parts[i] != nil || out[i] != nil {
				return fmt.Errorf("rank %d: slot %d still holds a buffer after a failed verdict", me, i)
			}
		}
		// The next exchange on the same tables runs normally.
		for dst := range parts {
			parts[dst] = bufpool.GetDirty(512)
		}
		if err := sparseExchange(c, nil, parts, out, counts, nil, roundTag(1, 0), nil); err != nil {
			return err
		}
		for src, blob := range out {
			if blob == nil {
				return fmt.Errorf("rank %d: nothing from %d after a good verdict", me, src)
			}
		}
		recycleRound(out)
		return nil
	})
}

// TestExchangeOwnershipStress runs 64 multi-round 8-rank collectives over
// one file — 32 times a write followed by a read-back — with every block
// stamped with its rank, iteration and index (the index fixes which
// two-phase round carries it). Exchange buffers move
// between ranks by ownership and cycle through the pool the whole time, so a
// message recycled while its receiver (or the aggregator's round iovec)
// still reads it, or put twice and handed to two encoders, shows up as a
// wrong byte in the read-back, and under -race as a data race.
func TestExchangeOwnershipStress(t *testing.T) {
	const (
		p       = 8
		block   = 512
		nBlocks = 32 // per rank: 16 KiB, 128 KiB in the file
		iters   = 32
	)
	fsys := testFS()
	info := mpi.NewInfo().
		Set("cb_buffer_size", "4096").
		Set("cb_nodes", "4")
	var rounds, piped int64 // rank 0's counters, read after the world has ended
	runWorld(t, p, func(c *mpi.Comm) error {
		me := c.Rank()
		c.Proc().SetStats(iostat.New())
		f, err := Open(c, fsys, "own", ModeRdWr|ModeCreate, info)
		if err != nil {
			return err
		}
		// Rank r owns every p-th block: each rank sends to every
		// aggregator in every round.
		view, err := mpitype.Subarray([]int64{nBlocks, p * block}, []int64{nBlocks, block}, []int64{0, 0}, 1)
		if err != nil {
			return err
		}
		if err := f.SetView(int64(me)*block, view); err != nil {
			return err
		}
		data := make([]byte, nBlocks*block)
		got := make([]byte, len(data))
		for it := 0; it < iters; it++ {
			for b := 0; b < nBlocks; b++ {
				for i := 0; i < block; i++ {
					data[b*block+i] = byte(me*37 + it*11 + b*5 + i)
				}
			}
			if err := f.WriteAtAll(0, data); err != nil {
				return err
			}
			for i := range got {
				got[i] = 0xEE
			}
			if err := f.ReadAtAll(0, got); err != nil {
				return err
			}
			if !bytes.Equal(got, data) {
				i := 0
				for got[i] == data[i] {
					i++
				}
				return fmt.Errorf("rank %d iter %d: read-back differs at byte %d (block %d): got %#x, want %#x",
					me, it, i, i/block, got[i], data[i])
			}
		}
		if me == 0 {
			rounds = c.Proc().Stats().Get(iostat.IOTwoPhaseRounds)
			piped = c.Proc().Stats().Get(iostat.IOPipelinedRounds)
		}
		return f.Close()
	})
	if rounds < 2*2*iters {
		t.Fatalf("%d rounds over %d collectives; the stress needs multi-round exchanges", rounds, 2*iters)
	}
	if piped != rounds {
		t.Fatalf("%d of %d rounds counted as pipelined; every collective here has many rounds", piped, rounds)
	}
}
