package mpi

import (
	"errors"
	"strings"
	"testing"
)

// TestMismatchedCollectivesNameBoth: rank 0 enters a Barrier while rank 1
// enters a Bcast. The operation's kind is part of its message context, so
// neither consumes the other's messages; both park, and the deadlock names
// each rank's collective.
func TestMismatchedCollectivesNameBoth(t *testing.T) {
	err := Run(2, DefaultNet(), func(c *Comm) error {
		if c.Rank() == 0 {
			c.Barrier()
		} else {
			c.Bcast(0, nil)
		}
		return nil
	})
	var dl *deadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want *deadlockError", err)
	}
	if len(dl.Parked) != 2 || dl.Parked[0].Op != "Barrier" || dl.Parked[1].Op != "Bcast" ||
		dl.Parked[0].Seq != 1 || dl.Parked[1].Seq != 1 {
		t.Fatalf("parked = %+v", dl.Parked)
	}
	for _, want := range []string{"collective 1 Barrier", "collective 1 Bcast"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("message %q does not contain %q", err, want)
		}
	}
}

// TestReductionLengthMismatchAborts: members that pass vectors of different
// lengths to one reduction get an error naming both lengths, not an index
// panic inside the fold.
func TestReductionLengthMismatchAborts(t *testing.T) {
	err := Run(2, DefaultNet(), func(c *Comm) error {
		vals := []int64{1, 2, 3}
		if c.Rank() == 1 {
			vals = vals[:1]
		}
		c.AllreduceI64(vals, OpSum)
		return nil
	})
	if err == nil {
		t.Fatal("a reduction over unequal vectors completed")
	}
	msg := err.Error()
	if strings.Contains(msg, "runtime error") {
		t.Fatalf("unequal vectors panicked: %v", msg)
	}
	for _, want := range []string{"ReduceI64", "(collective 1)", "3 elements", "sent 1"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("message %q does not contain %q", msg, want)
		}
	}
}
