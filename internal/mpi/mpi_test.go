package mpi

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"
)

// sizes exercised by every collective test; includes non-powers of two.
var testSizes = []int{1, 2, 3, 4, 5, 7, 8, 9}

func runOrFatal(t *testing.T, n int, fn func(*Comm) error) {
	t.Helper()
	if err := Run(n, DefaultNet(), fn); err != nil {
		t.Fatalf("size %d: %v", n, err)
	}
}

func TestRunBasics(t *testing.T) {
	for _, n := range testSizes {
		seen := make([]bool, n)
		runOrFatal(t, n, func(c *Comm) error {
			if c.Size() != n {
				return fmt.Errorf("Size() = %d, want %d", c.Size(), n)
			}
			if c.Rank() < 0 || c.Rank() >= n {
				return fmt.Errorf("bad rank %d", c.Rank())
			}
			seen[c.Rank()] = true
			return nil
		})
		for r, ok := range seen {
			if !ok {
				t.Fatalf("size %d: rank %d never ran", n, r)
			}
		}
	}
}

func TestRunPropagatesError(t *testing.T) {
	sentinel := errors.New("boom")
	err := Run(4, DefaultNet(), func(c *Comm) error {
		if c.Rank() == 2 {
			return sentinel
		}
		// Other ranks may block in a collective; the abort must unwind them.
		c.Barrier()
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

func TestRunRecoversPanic(t *testing.T) {
	err := Run(3, DefaultNet(), func(c *Comm) error {
		if c.Rank() == 1 {
			panic("kaboom")
		}
		c.Barrier()
		return nil
	})
	if err == nil {
		t.Fatal("panic not propagated")
	}
}

func TestSendRecv(t *testing.T) {
	runOrFatal(t, 4, func(c *Comm) error {
		if c.Rank() == 0 {
			for dst := 1; dst < 4; dst++ {
				c.Send(dst, 7, []byte{byte(dst), 42})
			}
			return nil
		}
		data, src := c.Recv(0, 7)
		if src != 0 || len(data) != 2 || data[0] != byte(c.Rank()) || data[1] != 42 {
			return fmt.Errorf("rank %d: got %v from %d", c.Rank(), data, src)
		}
		return nil
	})
}

func TestRecvTagMatching(t *testing.T) {
	runOrFatal(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, []byte("first"))
			c.Send(1, 2, []byte("second"))
			return nil
		}
		// Receive out of send order by tag.
		d2, _ := c.Recv(0, 2)
		d1, _ := c.Recv(0, 1)
		if string(d1) != "first" || string(d2) != "second" {
			return fmt.Errorf("tag matching broken: %q %q", d1, d2)
		}
		return nil
	})
}

func TestRecvAnySourceAnyTag(t *testing.T) {
	runOrFatal(t, 3, func(c *Comm) error {
		if c.Rank() != 0 {
			c.Send(0, c.Rank()*10, []byte{byte(c.Rank())})
			return nil
		}
		got := map[int]bool{}
		for i := 0; i < 2; i++ {
			data, src := c.Recv(AnySource, anyTag)
			if int(data[0]) != src {
				return fmt.Errorf("payload %v from %d", data, src)
			}
			got[src] = true
		}
		if !got[1] || !got[2] {
			return fmt.Errorf("missing sources: %v", got)
		}
		return nil
	})
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	runOrFatal(t, 4, func(c *Comm) error {
		// Give ranks wildly different local times, then barrier.
		c.Proc().Advance(float64(c.Rank()))
		c.Barrier()
		after := c.AllreduceF64([]float64{c.Clock()}, OpMin)[0]
		// Everyone's clock must be at least the slowest rank's pre-barrier
		// time (rank 3: 3.0s).
		if after < 3.0 {
			return fmt.Errorf("clock %v below slowest entrant", after)
		}
		return nil
	})
}

func TestBcastAllSizesAllRoots(t *testing.T) {
	for _, n := range testSizes {
		for root := 0; root < n; root++ {
			root := root
			runOrFatal(t, n, func(c *Comm) error {
				var payload []byte
				if c.Rank() == root {
					payload = []byte(fmt.Sprintf("hello from %d", root))
				}
				got := c.Bcast(root, payload)
				want := fmt.Sprintf("hello from %d", root)
				if string(got) != want {
					return fmt.Errorf("rank %d: Bcast got %q", c.Rank(), got)
				}
				return nil
			})
		}
	}
}

func TestGatherScatter(t *testing.T) {
	for _, n := range testSizes {
		runOrFatal(t, n, func(c *Comm) error {
			// Gather variable-length payloads.
			mine := make([]byte, c.Rank()+1)
			for i := range mine {
				mine[i] = byte(c.Rank())
			}
			parts := c.gather(0, mine)
			if c.Rank() == 0 {
				for r := 0; r < n; r++ {
					if len(parts[r]) != r+1 || (r > 0 && parts[r][0] != byte(r)) {
						return fmt.Errorf("Gather part %d = %v", r, parts[r])
					}
				}
			} else if parts != nil {
				return errors.New("non-root got Gather result")
			}
			return nil
		})
	}
}

func TestAllgather(t *testing.T) {
	for _, n := range testSizes {
		runOrFatal(t, n, func(c *Comm) error {
			all := c.Allgather([]byte{byte(c.Rank() * 3)})
			if len(all) != n {
				return fmt.Errorf("Allgather len %d", len(all))
			}
			for r := 0; r < n; r++ {
				if len(all[r]) != 1 || all[r][0] != byte(r*3) {
					return fmt.Errorf("Allgather[%d] = %v", r, all[r])
				}
			}
			return nil
		})
	}
}

func TestAlltoall(t *testing.T) {
	for _, n := range testSizes {
		runOrFatal(t, n, func(c *Comm) error {
			parts := make([][]byte, n)
			for dst := range parts {
				parts[dst] = []byte{byte(c.Rank()), byte(dst)}
			}
			got := c.Alltoall(parts)
			for src := range got {
				if got[src][0] != byte(src) || got[src][1] != byte(c.Rank()) {
					return fmt.Errorf("Alltoall[%d] = %v at rank %d", src, got[src], c.Rank())
				}
			}
			return nil
		})
	}
}

func TestReduceOps(t *testing.T) {
	for _, n := range testSizes {
		runOrFatal(t, n, func(c *Comm) error {
			r := int64(c.Rank())
			sum := c.AllreduceI64([]int64{r, 1}, OpSum)
			wantSum := int64(n*(n-1)) / 2
			if sum[0] != wantSum || sum[1] != int64(n) {
				return fmt.Errorf("sum = %v, want [%d %d]", sum, wantSum, n)
			}
			mn := c.AllreduceI64([]int64{r + 10}, OpMin)[0]
			mx := c.AllreduceI64([]int64{r + 10}, OpMax)[0]
			if mn != 10 || mx != int64(n-1+10) {
				return fmt.Errorf("min/max = %d/%d", mn, mx)
			}
			f := c.AllreduceF64([]float64{0.5}, OpSum)[0]
			if f != 0.5*float64(n) {
				return fmt.Errorf("fsum = %v", f)
			}
			return nil
		})
	}
}

func TestAgreeDigest(t *testing.T) {
	runOrFatal(t, 4, func(c *Comm) error {
		if !c.AgreeDigest(sha256.Sum256([]byte("same everywhere"))) {
			return errors.New("AgreeDigest false for identical data")
		}
		data := []byte("same")
		if c.Rank() == 2 {
			data = []byte("diff")
		}
		if c.AgreeDigest(sha256.Sum256(data)) {
			return errors.New("AgreeDigest true for differing data")
		}
		return nil
	})
}

func TestVirtualTimeMonotonic(t *testing.T) {
	runOrFatal(t, 4, func(c *Comm) error {
		t0 := c.Clock()
		c.Barrier()
		t1 := c.Clock()
		if t1 < t0 {
			return fmt.Errorf("clock went backwards: %v -> %v", t0, t1)
		}
		if c.Bcast(0, []byte("x")) == nil {
			return errors.New("bcast failed")
		}
		if c.Clock() < t1 {
			return errors.New("clock went backwards after bcast")
		}
		return nil
	})
}

func TestTransferTimeScalesWithSize(t *testing.T) {
	// A large message must cost more virtual time than a small one.
	var small, large float64
	runOrFatal(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, make([]byte, 1))
			c.Send(1, 2, make([]byte, 10<<20))
			return nil
		}
		t0 := c.Clock()
		c.Recv(0, 1)
		small = c.Clock() - t0
		t1 := c.Clock()
		c.Recv(0, 2)
		large = c.Clock() - t1
		return nil
	})
	if large <= small {
		t.Fatalf("10 MB transfer (%v) not slower than 1 B (%v)", large, small)
	}
	// 10 MB at 350 MB/s is ~28.6 ms.
	if large < 0.02 || large > 0.2 {
		t.Fatalf("10 MB transfer time %v implausible for 350 MB/s link", large)
	}
}

func TestInfoHints(t *testing.T) {
	var nilInfo *Info
	if _, ok := nilInfo.Get("k"); ok {
		t.Fatal("nil info returned a hit")
	}
	if nilInfo.GetInt("k", 7) != 7 {
		t.Fatal("nil info default broken")
	}
	info := NewInfo().Set("cb_nodes", "4").Set("romio_cb_write", "enable")
	if v := info.GetInt("cb_nodes", 0); v != 4 {
		t.Fatalf("GetInt = %d", v)
	}
	if !info.GetBool("romio_cb_write", false) {
		t.Fatal("GetBool enable")
	}
	if info.GetBool("missing", true) != true {
		t.Fatal("GetBool default")
	}
	if info.GetInt("romio_cb_write", -1) != -1 {
		t.Fatal("malformed int must fall back to default")
	}
	if len(info.kv) != 2 {
		t.Fatalf("hints = %v, want cb_nodes and romio_cb_write", info.kv)
	}
	clone := info.Clone().Set("cb_nodes", "8")
	if clone.GetInt("cb_nodes", 0) != 8 || info.GetInt("cb_nodes", 0) != 4 {
		t.Fatal("Clone not independent")
	}
}
