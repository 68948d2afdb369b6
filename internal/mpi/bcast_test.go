package mpi

import (
	"bytes"
	"fmt"
	"math/bits"
	"testing"

	"pnetcdf/internal/iostat"
)

// Bcast's two algorithms. refFanOut (reduce_ref_test.go) is the binomial
// tree every broadcast used before the long-message algorithm: below its
// threshold Bcast must be that tree to the clock, above it the scatter and
// ring must deliver the same bytes sooner.

// bcastClocks runs one broadcast of n bytes from root on p ranks whose
// clocks start staggered, through Bcast or the reference tree, and returns
// every rank's clock after it and the total bytes charged to the network.
func bcastClocks(t *testing.T, p, root, n int, ref bool) ([]float64, int64) {
	t.Helper()
	clocks := make([]float64, p)
	sent := make([]int64, p)
	runOrFatal(t, p, func(c *Comm) error {
		st := iostat.New()
		c.Proc().SetStats(st)
		c.Proc().SetClock(float64(c.Rank()*(c.Rank()%3)) * 7e-6)
		var data []byte
		if c.Rank() == root {
			data = make([]byte, n)
		}
		if ref {
			refFanOut(c, root, c.nextOpCtx(opBcast), data)
		} else {
			c.Bcast(root, data)
		}
		clocks[c.Rank()], sent[c.Rank()] = c.Clock(), st.Get(iostat.MPIBytesSent)
		return nil
	})
	total := int64(0)
	for _, b := range sent {
		total += b
	}
	return clocks, total
}

// TestBcastDeliversAroundThreshold: on either side of the threshold, on
// communicators of every shape the two phases split unevenly, and from a
// root other than 0, every member returns the root's bytes — one backing
// array, the root's own under BcastOwned — and the root's input is intact.
func TestBcastDeliversAroundThreshold(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 13, 32} {
		for _, n := range []int{bcastLong - 1, bcastLong, bcastLong + 1, bcastLong + 7*p + 3} {
			root := p - 1 - p/3
			want := make([]byte, n)
			for i := range want {
				want[i] = byte(i*31 + i>>8)
			}
			got := make([][]byte, p)
			runOrFatal(t, p, func(c *Comm) error {
				var data []byte
				if c.Rank() == root {
					data = bytes.Clone(want)
				}
				got[c.Rank()] = c.BcastOwned(root, data)
				if c.Rank() == root && &got[root][0] != &data[0] {
					return fmt.Errorf("root %d got back a copy of what it gave up", root)
				}
				again := c.Bcast(root, data)
				if c.Rank() == root && &again[0] != &data[0] {
					return fmt.Errorf("Bcast's root got back a copy of its own buffer")
				}
				if !bytes.Equal(again, want) {
					return fmt.Errorf("rank %d: Bcast delivered other bytes", c.Rank())
				}
				return nil
			})
			for r, b := range got {
				if !bytes.Equal(b, want) || &b[0] != &got[root][0] {
					t.Fatalf("p=%d n=%d root=%d: rank %d got the root's bytes: %v, the root's array: %v",
						p, n, root, r, bytes.Equal(b, want), &b[0] == &got[root][0])
				}
			}
		}
	}
}

// TestBcastShortIsTheTree: below the threshold, and on communicators too
// small for the long algorithm at any size, every rank's clock and the bytes
// charged are the binomial tree's exactly.
func TestBcastShortIsTheTree(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 13, 32} {
		sizes := []int{0, 1, 1000, bcastLong - 1}
		if p < bcastLongMin {
			sizes = append(sizes, bcastLong, 4*bcastLong)
		}
		for _, n := range sizes {
			root := p / 2
			got, gotSent := bcastClocks(t, p, root, n, false)
			want, wantSent := bcastClocks(t, p, root, n, true)
			for r := range got {
				if got[r] != want[r] {
					t.Fatalf("p=%d n=%d root=%d: rank %d ends at %v, the tree at %v", p, n, root, r, got[r], want[r])
				}
			}
			if gotSent != wantSent {
				t.Fatalf("p=%d n=%d root=%d: %d bytes charged, the tree %d", p, n, root, gotSent, wantSent)
			}
		}
	}
}

// TestBcastLongBeatsTheTree: the meta_defs header, 465 020 bytes on 8
// ranks, reaches its last member strictly sooner by scatter and ring than
// down the tree. Each message is charged its piece and no more: the ring
// moves every piece to p−1 members, (p−1)·n bytes, and the scatter moves
// piece j once for every member on its way down, the popcount of j.
func TestBcastLongBeatsTheTree(t *testing.T) {
	const p, n = 8, 465020
	chunk := (n + p - 1) / p
	want := int64((p - 1) * n)
	for j := 1; j < p; j++ {
		want += int64(bits.OnesCount(uint(j)) * (min((j+1)*chunk, n) - j*chunk))
	}
	for _, root := range []int{0, 5} {
		long, sent := bcastClocks(t, p, root, n, false)
		tree, _ := bcastClocks(t, p, root, n, true)
		if slowest(long) >= slowest(tree) {
			t.Fatalf("root %d: the last member has the header at %.1f µs, the tree's at %.1f µs", root, 1e6*slowest(long), 1e6*slowest(tree))
		}
		if sent != want {
			t.Fatalf("root %d: %d bytes charged, want %d", root, sent, want)
		}
		t.Logf("root %d: last member at %.1f µs, the tree's at %.1f µs", root, 1e6*slowest(long), 1e6*slowest(tree))
	}
}

func slowest(clocks []float64) float64 {
	m := clocks[0]
	for _, x := range clocks {
		m = max(m, x)
	}
	return m
}

// TestBcastLongKilledMember: a member that dies after its scatter piece
// arrived and before the ring has moved leaves every survivor with an
// *ErrRevoked naming it — the ring makes every member wait on every other —
// and the world ends without a deadlock. Every member, the interior ones
// with a subtree still to feed included, is the victim once.
func TestBcastLongKilledMember(t *testing.T) {
	const p, root, n = 8, 3, bcastLong
	for victim := 0; victim < p; victim++ {
		if victim == root {
			continue
		}
		errs := make([]error, p)
		err := Run(p, DefaultNet(), func(c *Comm) error {
			if c.Rank() == victim {
				ctx := c.nextOpCtx(opBcast)
				tr := c.commTree(root)
				c.recv(tr.rank(tr.me-tr.span()), AnyTag, ctx)
				c.Die()
			}
			var data []byte
			if c.Rank() == root {
				data = make([]byte, n)
			}
			errs[c.Rank()] = CatchRevoked(func() error {
				c.Bcast(root, data)
				return nil
			})
			return nil
		})
		if err != nil {
			t.Fatalf("victim %d: %v", victim, err)
		}
		for r, e := range errs {
			if r == victim {
				continue
			}
			rv, ok := AsRevoked(e)
			if !ok || len(rv.Failed) != 1 || rv.Failed[0] != victim {
				t.Fatalf("victim %d: rank %d returned %v, want *ErrRevoked naming the victim", victim, r, e)
			}
		}
	}
}
