package mpi

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestRandomizedPointToPoint drives a random but deadlock-free traffic
// pattern: every rank sends a batch of tagged messages to every other rank,
// then receives them in random tag order (tag matching must reorder).
func TestRandomizedPointToPoint(t *testing.T) {
	const p = 5
	const perPair = 20
	runOrFatal(t, p, func(c *Comm) error {
		rng := rand.New(rand.NewSource(int64(c.Rank()) + 1))
		for dst := 0; dst < p; dst++ {
			if dst == c.Rank() {
				continue
			}
			for m := 0; m < perPair; m++ {
				payload := []byte{byte(c.Rank()), byte(dst), byte(m)}
				c.Send(dst, 100+m, payload)
			}
		}
		// Receive per source in shuffled tag order.
		for src := 0; src < p; src++ {
			if src == c.Rank() {
				continue
			}
			order := rng.Perm(perPair)
			for _, m := range order {
				data, from := c.Recv(src, 100+m)
				if from != src || data[0] != byte(src) || data[1] != byte(c.Rank()) || data[2] != byte(m) {
					return fmt.Errorf("rank %d: bad message %v from %d (tag %d)", c.Rank(), data, from, 100+m)
				}
			}
		}
		return nil
	})
}

// TestNestedSplits splits twice and runs collectives at every level
// concurrently; contexts must never cross.
func TestNestedSplits(t *testing.T) {
	runOrFatal(t, 8, func(c *Comm) error {
		half := c.Split(c.Rank()/4, c.Rank()) // two groups of 4
		quarter := half.Split(half.Rank()/2, half.Rank())
		if half.Size() != 4 || quarter.Size() != 2 {
			return fmt.Errorf("sizes %d/%d", half.Size(), quarter.Size())
		}
		// Sum world ranks at each level.
		w := c.AllreduceI64([]int64{int64(c.Rank())}, OpSum)[0]
		h := half.AllreduceI64([]int64{int64(c.Rank())}, OpSum)[0]
		q := quarter.AllreduceI64([]int64{int64(c.Rank())}, OpSum)[0]
		if w != 28 {
			return fmt.Errorf("world sum %d", w)
		}
		wantH := int64(0 + 1 + 2 + 3)
		if c.Rank() >= 4 {
			wantH = 4 + 5 + 6 + 7
		}
		if h != wantH {
			return fmt.Errorf("half sum %d, want %d", h, wantH)
		}
		wantQ := int64(2*(c.Rank()/2*2) + 1)
		if q != wantQ {
			return fmt.Errorf("quarter sum %d, want %d (rank %d)", q, wantQ, c.Rank())
		}
		// Interleave point-to-point on the world with collectives on subs.
		if c.Rank() == 0 {
			c.Send(7, 42, []byte("cross"))
		}
		half.Barrier()
		if c.Rank() == 7 {
			data, _ := c.Recv(0, 42)
			if string(data) != "cross" {
				return fmt.Errorf("cross message %q", data)
			}
		}
		quarter.Barrier()
		return nil
	})
}

// TestClockNeverRegresses under heavy mixed traffic.
func TestClockNeverRegresses(t *testing.T) {
	runOrFatal(t, 6, func(c *Comm) error {
		last := c.Clock()
		check := func(tag string) error {
			if c.Clock() < last {
				return fmt.Errorf("clock regressed at %s: %v -> %v", tag, last, c.Clock())
			}
			last = c.Clock()
			return nil
		}
		for i := 0; i < 30; i++ {
			c.Barrier()
			if err := check("barrier"); err != nil {
				return err
			}
			c.Allgather(make([]byte, 128))
			if err := check("allgather"); err != nil {
				return err
			}
			peer := (c.Rank() + 1) % c.Size()
			prev := (c.Rank() + c.Size() - 1) % c.Size()
			c.Send(peer, 9, make([]byte, 64))
			c.Recv(prev, 9)
			if err := check("p2p"); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestScatterGatherLargePayloads moves megabyte payloads through Gather.
func TestScatterGatherLargePayloads(t *testing.T) {
	runOrFatal(t, 4, func(c *Comm) error {
		mine := make([]byte, 1<<20)
		for j := range mine {
			mine[j] = byte(c.Rank()*31 + j%251)
		}
		back := c.Gather(0, mine)
		if c.Rank() == 0 {
			for i := range back {
				if len(back[i]) != 1<<20 || back[i][100] != byte(i*31+100%251) {
					return fmt.Errorf("gather part %d wrong", i)
				}
			}
		}
		return nil
	})
}

// TestBcastLargeTree exercises the binomial tree with a non-power-of-two
// size and a multi-megabyte payload.
func TestBcastLargeTree(t *testing.T) {
	runOrFatal(t, 7, func(c *Comm) error {
		var payload []byte
		if c.Rank() == 3 {
			payload = make([]byte, 3<<20)
			for i := range payload {
				payload[i] = byte(i % 254)
			}
		}
		got := c.Bcast(3, payload)
		if len(got) != 3<<20 {
			return fmt.Errorf("rank %d: got %d bytes", c.Rank(), len(got))
		}
		for _, i := range []int{0, 1 << 20, 3<<20 - 1} {
			if got[i] != byte(i%254) {
				return fmt.Errorf("rank %d: byte %d = %d", c.Rank(), i, got[i])
			}
		}
		return nil
	})
}
