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

	"pnetcdf/internal/iostat"
)

// TestFTDieRevokesBlockedPeers is the core no-hang property: a rank dying
// mid-collective leaves every survivor with the same *ErrRevoked instead
// of a hang, and so does every later collective.
func TestFTDieRevokesBlockedPeers(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		for victim := 1; victim < n; victim += 2 {
			var mu sync.Mutex
			failedSets := map[int][]int{}
			err := Run(n, DefaultNet(), func(c *Comm) error {
				if c.Rank() == victim {
					c.Die()
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
				// Nothing completes on the revoked communicator afterwards.
				later := CatchRevoked(func() error { c.Barrier(); return nil })
				if lrv, ok := AsRevoked(later); !ok || fmt.Sprint(lrv.Failed) != fmt.Sprint(rv.Failed) {
					return fmt.Errorf("rank %d: a later Barrier returned %v, want the same revocation", c.Rank(), later)
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
			c.Die()
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
			c.Die()
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
			if err := CatchRevoked(func() error { c.Barrier(); return nil }); err != nil {
				return fmt.Errorf("clean run revoked: %w", err)
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
		if p.Rank != i+1 || p.Source != 0 || p.Tag != 7 || p.Op != "" || p.Seq != 0 {
			t.Fatalf("parked[%d] = %+v", i, p)
		}
	}
	for _, want := range []string{"rank 1 waits on rank 0", "rank 2 waits on rank 0", "tag 7"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("message %q does not contain %q", err, want)
		}
	}

	// A missing collective call is the other classic: rank 0 waits inside a
	// second Barrier its partner never enters, while rank 1 waits in a
	// receive nobody sends to.
	err = Run(2, DefaultNet(), func(c *Comm) error {
		c.Barrier()
		if c.Rank() == 0 {
			c.Barrier()
		} else {
			c.Recv(0, 1)
		}
		return nil
	})
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want *ErrDeadlock", err)
	}
	if len(dl.Parked) != 2 || dl.Parked[0].Op != "Barrier" || dl.Parked[0].Seq != 2 || dl.Parked[1].Op != "" ||
		!strings.Contains(err.Error(), "rank 0 waits on rank 1 (collective 2 Barrier, tag 1)") ||
		!strings.Contains(err.Error(), "rank 1 waits on rank 0 (tag 1)") {
		t.Fatalf("missing collective call reported as %v", err)
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
				c.Die()
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

// TestFTRevocationIsFinal: the world is revoked once, with the failed set
// of that quiescence. A rank that dies after it changes nothing: nobody can
// park again, so every later call on every survivor still returns the first
// failed set.
func TestFTRevocationIsFinal(t *testing.T) {
	const n, first, second = 5, 1, 3
	err := Run(n, DefaultNet(), func(c *Comm) error {
		if c.Rank() == first {
			c.Die()
		}
		want := fmt.Sprint([]int{first})
		cerr := CatchRevoked(func() error { c.Barrier(); return nil })
		if rv, ok := AsRevoked(cerr); !ok || fmt.Sprint(rv.Failed) != want {
			return fmt.Errorf("rank %d: got %v, want a revocation of %s", c.Rank(), cerr, want)
		}
		if c.Rank() == second {
			c.Die()
		}
		for _, op := range []func(){c.Barrier, func() { c.Recv(AnySource, 1) }, func() { c.Send(second, 1, nil) }} {
			again := CatchRevoked(func() error { op(); return nil })
			if rv, ok := AsRevoked(again); !ok || fmt.Sprint(rv.Failed) != want {
				return fmt.Errorf("rank %d: a later call returned %v, want the revocation of %s", c.Rank(), again, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFTEverySurvivorSeesTheRevocation: the first survivor to leave returns
// its revocation as an error, which aborts the world. Every other survivor
// must still leave with *ErrRevoked and count its detection, not unwind
// with ErrAborted: a revoked world is checked before an aborted one.
func TestFTEverySurvivorSeesTheRevocation(t *testing.T) {
	const n, victim = 8, 4
	for rep := 0; rep < 20; rep++ {
		got := make([]error, n)
		stats := make([]*iostat.Stats, n)
		err := Run(n, DefaultNet(), func(c *Comm) error {
			stats[c.Rank()] = iostat.New()
			c.Proc().SetStats(stats[c.Rank()])
			if c.Rank() == victim {
				c.Die()
			}
			cerr := CatchRevoked(func() error { c.Barrier(); return nil })
			got[c.Rank()] = cerr
			if c.Rank() == 0 {
				return cerr
			}
			return nil
		})
		if _, ok := AsRevoked(err); !ok {
			t.Fatalf("rep %d: Run = %v, want rank 0's revocation", rep, err)
		}
		for r := 0; r < n; r++ {
			if r == victim {
				continue
			}
			if _, ok := AsRevoked(got[r]); !ok {
				t.Fatalf("rep %d: rank %d left with %v, want *ErrRevoked", rep, r, got[r])
			}
			if d := stats[r].Get(iostat.FTFailuresDetected); d != 1 {
				t.Fatalf("rep %d: rank %d counted %d detections, want 1", rep, r, d)
			}
		}
	}
}

// TestFTDetectorStress hammers the detector's two delicate moments — the
// snapshot before the first wake and the credit it holds while it walks —
// with a few hundred small worlds: 8 ranks mixing AllreduceI64 with
// AnySource exchanges, a seeded random victim dying at a random moment.
// Never a deadlock report, and the same failed set on every survivor.
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
					c.Die()
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

// TestAgreeErrorShapes pins AgreeError semantics the collective I/O leans on:
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
