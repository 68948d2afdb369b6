package mpi

import (
	"bytes"
	"fmt"
	"testing"
)

// TestSendMovesTheBuffer pins the ownership rule of the package comment: a
// message carries the sender's slice, so Recv hands the receiver the very
// array that was sent, and a 1 MiB message allocates nothing payload-sized
// anywhere between Send and Recv.
func TestSendMovesTheBuffer(t *testing.T) {
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	var got []byte
	exchange := func(tb testing.TB) {
		err := Run(2, DefaultNet(), func(c *Comm) error {
			if c.Rank() == 0 {
				c.Send(1, 7, payload)
				return nil
			}
			got, _ = c.Recv(0, 7)
			return nil
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	exchange(t)
	if len(got) != len(payload) || &got[0] != &payload[0] {
		t.Fatal("Recv returned a copy: the message must carry the sender's backing array")
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			exchange(b)
		}
	})
	t.Logf("2-rank world + one 1 MiB message: %d B/op, %d allocs/op", res.AllocedBytesPerOp(), res.AllocsPerOp())
	// What is left is the world itself (two goroutines, mailboxes); one copy
	// of the payload would be 1 MiB.
	if limit := int64(len(payload) / 16); res.AllocedBytesPerOp() > limit {
		t.Errorf("a 1 MiB message costs %d B/op, want <= %d: the payload is being copied", res.AllocedBytesPerOp(), limit)
	}
}

// stamp fills b with a pattern unique to (rank, iter, slot).
func stamp(b []byte, rank, iter, slot int) {
	for i := range b {
		b[i] = byte(rank*131 + iter*31 + slot*7 + i)
	}
}

func stamped(n, rank, iter, slot int) []byte {
	b := make([]byte, n)
	stamp(b, rank, iter, slot)
	return b
}

// TestCollectiveInputsReusableOnReturn: every collective but the in-place
// reductions keeps MPI's contract that an input buffer may be rewritten the
// moment the call returns, although sends no longer copy. Each rank reuses
// one set of input buffers for every iteration, rewriting them immediately
// after each call, and checks afterwards that what it received in the
// previous iteration is still intact — a received slice aliasing a peer's
// input would be torn by the peer's next rewrite (and reported by the race
// detector). Allreduce's result must be its input vector, overwritten
// (MPI_IN_PLACE), and correct although every rank rewrites that vector in
// the next iteration while its wire buffers cycle through the pool.
func TestCollectiveInputsReusableOnReturn(t *testing.T) {
	const iters = 40
	const n = 96 // payload bytes per slot
	for _, p := range []int{2, 5, 8} {
		runOrFatal(t, p, func(c *Comm) error {
			me := c.Rank()
			bcastIn := make([]byte, n)
			parts := make([][]byte, p)
			for i := range parts {
				parts[i] = make([]byte, n)
			}
			ints := make([]int64, 4)
			floats := make([]float64, 4)
			type kept struct {
				what string
				got  []byte
				want []byte
			}
			var prev []kept
			for it := 0; it < iters; it++ {
				root := it % p
				var keep []kept

				// Bcast: the root rewrites its payload right after the call.
				if me == root {
					stamp(bcastIn, root, it, 0)
				}
				got := c.Bcast(root, bcastIn)
				if me == root {
					stamp(bcastIn, root, it+1000, 0)
				} else {
					keep = append(keep, kept{"Bcast", got, stamped(n, root, it, 0)})
				}

				// Alltoall: everyone rewrites every part right after the call.
				for dst := range parts {
					stamp(parts[dst], me, it, dst)
				}
				all := c.Alltoall(parts)
				for dst := range parts {
					stamp(parts[dst], me, it+1000, dst)
				}
				for src := range all {
					keep = append(keep, kept{fmt.Sprintf("Alltoall[%d]", src), all[src], stamped(n, src, it, me)})
				}

				// Allreduce works in place: the result is the input vector,
				// overwritten, and the next iteration rewrites it.
				for i := range ints {
					ints[i] = int64(me + it + i)
					floats[i] = float64(me + it + i)
				}
				si := c.AllreduceI64(ints, OpSum)
				sf := c.AllreduceF64(floats, OpSum)
				if &si[0] != &ints[0] || &sf[0] != &floats[0] {
					return fmt.Errorf("rank %d iter %d: Allreduce returned a new vector, want the input overwritten", me, it)
				}
				for i := range si {
					want := int64(p*(p-1)/2 + p*(it+i))
					if si[i] != want || sf[i] != float64(want) {
						return fmt.Errorf("rank %d iter %d: Allreduce[%d] = %d / %v, want %d", me, it, i, si[i], sf[i], want)
					}
				}

				// Everything received in this and the previous iteration must
				// have survived all of the rewrites above.
				for _, k := range append(prev, keep...) {
					if !bytes.Equal(k.got, k.want) {
						return fmt.Errorf("rank %d iter %d: %s result changed after its sender reused the input", me, it, k.what)
					}
				}
				prev = keep
			}
			return nil
		})
	}
}
