package mpi

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// TestFTDieRevokesBlockedPeers is the core no-hang property: a rank dying
// mid-collective leaves every survivor with the same *ErrRevoked instead
// of a hang, and the survivors can agree, shrink, and finish on the
// survivor communicator.
func TestFTDieRevokesBlockedPeers(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		for victim := 1; victim < n; victim += 2 {
			var mu sync.Mutex
			failedSets := map[int][]int{}
			err := Run(n, DefaultNet(), func(c *Comm) error {
				if c.Rank() == victim {
					c.Die(errors.New("test kill"))
				}
				cerr := CatchRevoked(func() error {
					c.AllreduceI64([]int64{int64(c.Rank())}, OpSum)
					return nil
				})
				rv, ok := AsRevoked(cerr)
				if !ok {
					return fmt.Errorf("rank %d: got %v, want ErrRevoked", c.Rank(), cerr)
				}
				mu.Lock()
				failedSets[c.Rank()] = rv.Failed
				mu.Unlock()
				// Survivor-side recovery completes post-revocation.
				sum := c.AgreeFT([]int64{int64(c.Rank())}, OpSum)[0]
				want := int64(0)
				for r := 0; r < n; r++ {
					if r != victim {
						want += int64(r)
					}
				}
				if sum != want {
					return fmt.Errorf("rank %d: AgreeFT sum %d, want %d", c.Rank(), sum, want)
				}
				nc, err := c.Shrink()
				if err != nil {
					return err
				}
				if nc.Size() != n-1 {
					return fmt.Errorf("shrunk size %d, want %d", nc.Size(), n-1)
				}
				// Ordinary collectives work on the shrunken communicator.
				if got := nc.AllreduceI64([]int64{1}, OpSum)[0]; got != int64(n-1) {
					return fmt.Errorf("shrunk Allreduce %d, want %d", got, n-1)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d victim=%d: %v", n, victim, err)
			}
			if len(failedSets) != n-1 {
				t.Fatalf("n=%d victim=%d: %d survivors reported, want %d", n, victim, len(failedSets), n-1)
			}
			for r, failed := range failedSets {
				if len(failed) != 1 || failed[0] != victim {
					t.Fatalf("n=%d victim=%d: rank %d saw failed set %v", n, victim, r, failed)
				}
			}
		}
	}
}

// TestFTDieDuringPointToPoint covers the other blocking shapes: a recv
// from the dead rank and a send toward the dead rank (which is dropped,
// not queued) both resolve without hanging.
func TestFTDieDuringPointToPoint(t *testing.T) {
	err := Run(3, DefaultNet(), func(c *Comm) error {
		switch c.Rank() {
		case 2:
			c.Die(errors.New("test kill"))
		case 1:
			// Recv blocked on the dead rank: must unwind as ErrRevoked.
			cerr := CatchRevoked(func() error {
				c.Recv(2, 7)
				return nil
			})
			if _, ok := AsRevoked(cerr); !ok {
				return fmt.Errorf("rank 1: got %v, want ErrRevoked", cerr)
			}
		case 0:
			// Send to the dead rank completes (dropped); the next receive
			// from a dead peer still revokes.
			c.Send(2, 7, []byte("x"))
			cerr := CatchRevoked(func() error {
				c.Recv(2, 8)
				return nil
			})
			if _, ok := AsRevoked(cerr); !ok {
				return fmt.Errorf("rank 0: got %v, want ErrRevoked", cerr)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFTOperationsAfterRevokePanic: once revoked, any regular operation on
// the communicator panics ErrRevoked — repeatedly, not just the first.
func TestFTOperationsAfterRevokePanic(t *testing.T) {
	err := Run(2, DefaultNet(), func(c *Comm) error {
		if c.Rank() == 1 {
			c.Die(errors.New("test kill"))
		}
		for i := 0; i < 3; i++ {
			cerr := CatchRevoked(func() error {
				c.Barrier()
				return nil
			})
			if _, ok := AsRevoked(cerr); !ok {
				return fmt.Errorf("attempt %d: got %v, want ErrRevoked", i, cerr)
			}
		}
		if !c.Revoked() {
			return errors.New("Revoked() = false after revocation")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFTAgreeFTHealthy: with no failure, AgreeFT is AllreduceI64 on every
// communicator size and both ops used by the failover.
func TestFTAgreeFTHealthy(t *testing.T) {
	for _, n := range testSizes {
		err := Run(n, DefaultNet(), func(c *Comm) error {
			got := c.AgreeFT([]int64{int64(c.Rank()), -int64(c.Rank())}, OpMin)
			if got[0] != 0 || got[1] != -int64(n-1) {
				return fmt.Errorf("AgreeFT min = %v", got)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestFTShrinkErrors: Shrink demands a revocation.
func TestFTShrinkErrors(t *testing.T) {
	if err := Run(2, DefaultNet(), func(c *Comm) error {
		if _, err := c.Shrink(); err == nil {
			return errors.New("healthy Shrink succeeded, want error")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFTShrinkRanksDense: the shrunken communicator renumbers survivors
// densely in old-rank order and maps messages independently of the old
// communicator.
func TestFTShrinkRanksDense(t *testing.T) {
	const n, victim = 5, 2
	err := Run(n, DefaultNet(), func(c *Comm) error {
		if c.Rank() == victim {
			c.Die(errors.New("test kill"))
		}
		cerr := CatchRevoked(func() error { c.Barrier(); return nil })
		if _, ok := AsRevoked(cerr); !ok {
			return fmt.Errorf("got %v, want ErrRevoked", cerr)
		}
		nc, err := c.Shrink()
		if err != nil {
			return err
		}
		want := c.Rank()
		if c.Rank() > victim {
			want--
		}
		if nc.Rank() != want {
			return fmt.Errorf("old rank %d: shrunk rank %d, want %d", c.Rank(), nc.Rank(), want)
		}
		// Point-to-point on the shrunken communicator.
		if nc.Rank() == 0 {
			for r := 1; r < nc.Size(); r++ {
				if got, _ := nc.Recv(r, 1); len(got) != r {
					return fmt.Errorf("shrunk recv from %d: %d bytes", r, len(got))
				}
			}
		} else {
			nc.Send(0, 1, make([]byte, nc.Rank()))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFTCleanWorldNeverRevokes: a world nobody dies in never revokes and
// never reports a deadlock, whatever mix of blocking shapes it runs —
// including ranks that finish long before their peers.
func TestFTCleanWorldNeverRevokes(t *testing.T) {
	for _, n := range testSizes {
		err := Run(n, DefaultNet(), func(c *Comm) error {
			for i := 0; i < 50; i++ {
				if got := c.AllreduceI64([]int64{1}, OpSum)[0]; got != int64(n) {
					return fmt.Errorf("Allreduce %d, want %d", got, n)
				}
			}
			// A ring of point-to-point messages, then the odd ranks leave
			// while rank 0 still collects from any source.
			if n > 1 {
				c.Send((c.Rank()+1)%n, 3, []byte{byte(c.Rank())})
				c.Recv((c.Rank()+n-1)%n, 3)
				if c.Rank() != 0 {
					c.Send(0, 4, nil)
				} else {
					for i := 1; i < n; i++ {
						c.Recv(AnySource, 4)
					}
				}
			}
			if c.Revoked() {
				return errors.New("clean run revoked")
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestDeadlockIsTypedError: a receive from a rank that returned without
// sending used to hang until go test's timeout; now Run returns
// *ErrDeadlock naming every blocked rank and what it waits on.
func TestDeadlockIsTypedError(t *testing.T) {
	err := Run(3, DefaultNet(), func(c *Comm) error {
		if c.Rank() == 0 {
			return nil // never sends
		}
		c.Recv(0, 7)
		return errors.New("a receive nobody sends to returned")
	})
	var dl *ErrDeadlock
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want *ErrDeadlock", err)
	}
	if len(dl.Parked) != 2 {
		t.Fatalf("%d parked ranks reported, want 2: %v", len(dl.Parked), err)
	}
	for i, p := range dl.Parked {
		if p.WorldRank != i+1 || p.Source != 0 || p.Tag != 7 || p.Comm != 0 || p.Op != "" || p.Seq != 0 {
			t.Fatalf("parked[%d] = %+v", i, p)
		}
	}
	for _, want := range []string{"rank 1 waits on rank 0", "rank 2 waits on rank 0", "tag 7"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("message %q does not contain %q", err, want)
		}
	}

	// A missing collective call is the other classic: rank 0 waits inside a
	// second Barrier its partner never enters. The two dead ranks must not
	// turn this into a revocation — neither blocked rank is parked on a
	// communicator they belonged to.
	err = Run(4, DefaultNet(), func(c *Comm) error {
		pair := c.Split(c.Rank()/2, c.Rank())
		switch c.Rank() {
		case 0:
			pair.Barrier()
			pair.Barrier()
		case 1:
			pair.Barrier()
			pair.Recv(0, 1)
		case 2:
			pair.Recv(1, 1)
			pair.Die(errors.New("test kill"))
		case 3:
			pair.Send(0, 1, nil)
			pair.Die(errors.New("test kill"))
		}
		return nil
	})
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want *ErrDeadlock", err)
	}
	if len(dl.Parked) != 2 || dl.Parked[0].Op != "Barrier" || dl.Parked[0].Seq != 2 || dl.Parked[1].Op != "" ||
		!strings.Contains(err.Error(), "collective 2 Barrier") {
		t.Fatalf("missing collective call reported as %v", err)
	}
}

// TestFTSplitHalfRevokesOnlyItsOwn: a rank killed on one half of a Split
// revokes only the sub-communicator it belonged to. The other half, which
// never touches a communicator with the dead rank in it again, finishes
// clean.
func TestFTSplitHalfRevokesOnlyItsOwn(t *testing.T) {
	const n, victim = 6, 4
	var mu sync.Mutex
	revoked := map[int][]int{}
	err := Run(n, DefaultNet(), func(c *Comm) error {
		half := c.Split(c.Rank()/3, c.Rank())
		if c.Rank() == victim {
			half.Die(errors.New("test kill"))
		}
		cerr := CatchRevoked(func() error {
			for i := 0; i < 20; i++ {
				if got := half.AllreduceI64([]int64{1}, OpSum)[0]; got != 3 {
					return fmt.Errorf("half Allreduce %d, want 3", got)
				}
			}
			return nil
		})
		if c.Rank() < 3 {
			if cerr != nil || half.Revoked() || c.Revoked() {
				return fmt.Errorf("rank %d of the clean half: %v (half revoked %v, world revoked %v)",
					c.Rank(), cerr, half.Revoked(), c.Revoked())
			}
			return nil
		}
		rv, ok := AsRevoked(cerr)
		if !ok {
			return fmt.Errorf("rank %d: got %v, want ErrRevoked", c.Rank(), cerr)
		}
		if c.Revoked() {
			return errors.New("the world communicator was revoked; nobody was parked on it")
		}
		mu.Lock()
		revoked[c.Rank()] = rv.Failed
		mu.Unlock()
		nh, err := half.Shrink()
		if err != nil {
			return err
		}
		if got := nh.AllreduceI64([]int64{1}, OpSum)[0]; got != 2 {
			return fmt.Errorf("shrunk half Allreduce %d, want 2", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(revoked) != 2 {
		t.Fatalf("%d ranks saw the revocation, want the victim's 2 peers: %v", len(revoked), revoked)
	}
	for r, failed := range revoked {
		if len(failed) != 1 || failed[0] != victim-3 {
			t.Fatalf("rank %d saw failed set %v, want [%d]", r, failed, victim-3)
		}
	}
}

// TestFTDetectionIsDeterministic: the revocation lands at the latest clock
// among the blocked survivors plus FTDetectLatency, on every survivor and
// on every run.
func TestFTDetectionIsDeterministic(t *testing.T) {
	const n, victim = 4, 2
	var first []float64
	for rep := 0; rep < 20; rep++ {
		clocks := make([]float64, n)
		var latest float64
		var mu sync.Mutex
		err := Run(n, DefaultNet(), func(c *Comm) error {
			c.Barrier()
			c.Proc().Advance(float64(c.Rank()) * 0.01)
			if c.Rank() == victim {
				c.Die(errors.New("test kill"))
			}
			mu.Lock()
			latest = max(latest, c.Clock())
			mu.Unlock()
			cerr := CatchRevoked(func() error { c.Recv(victim, 1); return nil })
			if _, ok := AsRevoked(cerr); !ok {
				return fmt.Errorf("got %v, want ErrRevoked", cerr)
			}
			clocks[c.Rank()] = c.Clock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for r, got := range clocks {
			if r != victim && got != latest+FTDetectLatency {
				t.Fatalf("rep %d: rank %d left the receive at %v, want %v + %v", rep, r, got, latest, FTDetectLatency)
			}
		}
		if first == nil {
			first = clocks
		} else if fmt.Sprint(clocks) != fmt.Sprint(first) {
			t.Fatalf("rep %d: clocks %v differ from the first run's %v", rep, clocks, first)
		}
	}
}

// TestFTSecondDeathGrowsGeneration: a rank that dies while the survivors
// are handling the first revocation is detected the same way — their
// pinned AgreeFT receives park, the world goes quiet again — and every
// remaining survivor gets generation 2 with both ranks in the failed set.
func TestFTSecondDeathGrowsGeneration(t *testing.T) {
	const n, first, second = 5, 1, 3
	var mu sync.Mutex
	seen := map[int]string{}
	err := Run(n, DefaultNet(), func(c *Comm) error {
		if c.Rank() == first {
			c.Die(errors.New("test kill"))
		}
		cerr := CatchRevoked(func() error { c.Barrier(); return nil })
		if rv, ok := AsRevoked(cerr); !ok || rv.Gen != 1 {
			return fmt.Errorf("rank %d: got %v, want generation 1", c.Rank(), cerr)
		}
		if c.Rank() == second {
			c.Die(errors.New("test kill"))
		}
		cerr = CatchRevoked(func() error { c.AgreeFT([]int64{1}, OpSum); return nil })
		rv, ok := AsRevoked(cerr)
		if !ok {
			return fmt.Errorf("rank %d: AgreeFT with a second death returned %v, want ErrRevoked", c.Rank(), cerr)
		}
		mu.Lock()
		seen[c.Rank()] = fmt.Sprint(rv.Gen, rv.Failed)
		mu.Unlock()
		// The grown generation is one the survivors can agree over.
		if got := c.AgreeFT([]int64{1}, OpSum)[0]; got != n-2 {
			return fmt.Errorf("rank %d: %d survivors agree after the second death, want %d", c.Rank(), got, n-2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != n-2 {
		t.Fatalf("%d ranks saw the second revocation, want %d: %v", len(seen), n-2, seen)
	}
	for r, got := range seen {
		if want := fmt.Sprint(2, []int{first, second}); got != want {
			t.Fatalf("rank %d saw %s, want %s", r, got, want)
		}
	}
}

// TestFTDetectorStress hammers the detector's two delicate moments — the
// snapshot before the first wake and the credit it holds while it walks —
// with a few hundred small worlds: 8 ranks mixing AllreduceI64 with
// AnySource exchanges, a seeded random victim dying at a random moment.
// Never a deadlock report, the same failed set on every survivor, and the
// survivors' recovery (AgreeFT, Shrink, a collective on the survivor
// communicator) completes.
func TestFTDetectorStress(t *testing.T) {
	const n, worlds = 8, 300
	rng := rand.New(rand.NewSource(19))
	for w := 0; w < worlds; w++ {
		victim := rng.Intn(n)
		steps := 1 + rng.Intn(6)
		killStep := rng.Intn(steps)
		killAfterSend := rng.Intn(2) == 0
		var mu sync.Mutex
		failed := map[int]string{}
		err := Run(n, DefaultNet(), func(c *Comm) error {
			me := c.Rank()
			die := func(step int, afterSend bool) {
				if me == victim && step == killStep && afterSend == killAfterSend {
					c.Die(errors.New("test kill"))
				}
			}
			cerr := CatchRevoked(func() error {
				for s := 0; s < steps; s++ {
					c.AllreduceI64([]int64{int64(me)}, OpSum)
					// Everyone sends to two neighbours and takes two
					// messages from whoever they come from.
					c.Send((me+1)%n, s, []byte{byte(me)})
					die(s, false)
					c.Send((me+3)%n, s, []byte{byte(me)})
					die(s, true)
					c.Recv(AnySource, s)
					c.Recv(AnySource, s)
				}
				c.Barrier()
				return nil
			})
			rv, ok := AsRevoked(cerr)
			if !ok {
				return fmt.Errorf("rank %d: got %v, want ErrRevoked", me, cerr)
			}
			mu.Lock()
			failed[me] = fmt.Sprint(rv.Failed)
			mu.Unlock()
			live := c.AgreeFT([]int64{1}, OpSum)[0]
			nc, err := c.Shrink()
			if err != nil {
				return err
			}
			if got := nc.AllreduceI64([]int64{1}, OpSum)[0]; got != live || got != n-1 {
				return fmt.Errorf("rank %d: %d survivors agree, %d on the shrunken communicator, want %d", me, live, got, n-1)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("world %d (victim %d, step %d/%d, after send %v): %v", w, victim, killStep, steps, killAfterSend, err)
		}
		if len(failed) != n-1 {
			t.Fatalf("world %d: %d survivors reported, want %d", w, len(failed), n-1)
		}
		for r, f := range failed {
			if want := fmt.Sprint([]int{victim}); f != want {
				t.Fatalf("world %d: rank %d saw failed set %s, want %s", w, r, f, want)
			}
		}
	}
}

// TestAgreeErrorShapes pins AgreeError semantics the failover leans on:
// nil everywhere, a single failure, and a multi-error built with
// errors.Join all agree symmetrically.
func TestAgreeErrorShapes(t *testing.T) {
	sentinel1 := errors.New("first")
	sentinel2 := errors.New("second")
	for _, n := range []int{1, 2, 4, 5} {
		runOrFatal(t, n, func(c *Comm) error {
			if err := c.AgreeError(nil); err != nil {
				return fmt.Errorf("all-nil AgreeError = %v", err)
			}
			// One rank contributes a joined multi-error: it gets its own
			// error back, everyone else ErrPeerFailed.
			var mine error
			if c.Rank() == n-1 {
				mine = errors.Join(sentinel1, sentinel2)
			}
			got := c.AgreeError(mine)
			if c.Rank() == n-1 {
				if !errors.Is(got, sentinel1) || !errors.Is(got, sentinel2) {
					return fmt.Errorf("joined error lost components: %v", got)
				}
			} else if !errors.Is(got, ErrPeerFailed) {
				return fmt.Errorf("peer rank got %v, want ErrPeerFailed", got)
			}
			// Everyone failing returns each rank its own error.
			all := c.AgreeError(sentinel2)
			if !errors.Is(all, sentinel2) {
				return fmt.Errorf("all-fail AgreeError = %v", all)
			}
			return nil
		})
	}
}

// TestAgreeDigestPayloads pins the digest check on empty, nil-vs-empty,
// non-UTF-8, differing and different-length payloads, and on digest words
// whose negation is themselves: a first word of math.MinInt64 on one rank
// and another value elsewhere must disagree, which a min-of-negations
// scheme would miss.
func TestAgreeDigestPayloads(t *testing.T) {
	same := func(c *Comm, data []byte) bool { return c.AgreeDigest(sha256.Sum256(data)) }
	for _, n := range []int{1, 2, 3, 4} {
		runOrFatal(t, n, func(c *Comm) error {
			if !same(c, nil) {
				return errors.New("nil payloads disagree")
			}
			if !same(c, []byte{}) {
				return errors.New("empty payloads disagree")
			}
			var empty []byte
			if c.Rank() == 0 {
				empty = []byte{}
			}
			if !same(c, empty) {
				return errors.New("nil and empty payloads disagree")
			}
			bin := []byte{0xff, 0xfe, 0x00, 0x80, 0xc3}
			if !same(c, bin) {
				return errors.New("identical non-UTF-8 payloads disagree")
			}
			var minWord [32]byte
			binary.BigEndian.PutUint64(minWord[:], 1<<63) // math.MinInt64
			if !c.AgreeDigest(minWord) {
				return errors.New("identical MinInt64 digests disagree")
			}
			if n > 1 {
				diff := append([]byte(nil), bin...)
				if c.Rank() == n-1 {
					diff[0] = 0x00
				}
				if same(c, diff) {
					return errors.New("differing payloads agree")
				}
				short := bin
				if c.Rank() == 0 {
					short = bin[:3]
				}
				if same(c, short) {
					return errors.New("different-length payloads agree")
				}
				for _, other := range []int64{0, 5, -1, math.MaxInt64} {
					sum := minWord
					if c.Rank() == n-1 {
						binary.BigEndian.PutUint64(sum[:], uint64(other))
					}
					if c.AgreeDigest(sum) {
						return fmt.Errorf("a MinInt64 word agrees with %d", other)
					}
				}
			}
			return nil
		})
	}
}
