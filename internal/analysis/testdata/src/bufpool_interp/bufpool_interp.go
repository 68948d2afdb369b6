// Package fix is the golden fixture for the interprocedural bufpool
// upgrade: pooled buffers move through cross-package helpers — returned by
// one (ReturnsPooled), parked into a caller slice by another
// (StoresPooledParam), discharged by a third (PutsParam), and moved between
// ranks by a fourth (Comm.Send discharges, Comm.Recv acquires). The same
// fixture must be CLEAN under the intraprocedural checker (the
// strictly-more proof in the harness).
package fix

import (
	"fixture/bufpool_interp/helper"
	"pnetcdf/internal/mpi"
)

func use(b []byte) {}

// leakedHelperBuffer drops a buffer obtained through the helper: only the
// summary knows helper.Encode hands over pooled custody.
func leakedHelperBuffer(n int) {
	b := helper.Encode(n)
	use(b)
} // want `bufpool buffer b reaches function end without bufpool\.Put`

// pairedHelperBuffer is fine: the helper's Release puts its parameter.
func pairedHelperBuffer(n int) {
	b := helper.Encode(n)
	use(b)
	helper.Release(b)
}

// generationLeak drops a whole generation the helper filled with pooled
// buffers: custody re-homed under the local slice by the StoresPooledParam
// summary, never recycled.
func generationLeak(n int) {
	parts := make([][]byte, 4)
	helper.Fill(parts, n)
} // want `bufpool buffer parts reaches function end without bufpool\.Put`

// generationRecycled is fine: helper.ReleaseAll puts the generation back.
func generationRecycled(n int) {
	parts := make([][]byte, 4)
	helper.Fill(parts, n)
	helper.ReleaseAll(parts)
}

// fillThrough fills its caller's slice through the helper. It is clean: the
// store lands in a parameter, so custody passes on to whoever called it (its
// own summary becomes StoresPooledParam, one more hop along the chain).
func fillThrough(parts [][]byte, n int) {
	helper.Fill(parts, n)
}

// fillThroughLeak is that caller, dropping the generation.
func fillThroughLeak(n int) {
	parts := make([][]byte, 4)
	fillThrough(parts, n)
} // want `bufpool buffer parts reaches function end without bufpool\.Put`

// errPathLeak puts on the happy path but leaks on the error bail.
func errPathLeak(n int, err error) error {
	b := helper.Encode(n)
	if err != nil {
		return err // want `bufpool buffer b reaches return without bufpool\.Put`
	}
	helper.Release(b)
	return nil
}

// transferred is fine in interprocedural mode: returning the buffer makes
// this function ReturnsPooled, and its callers inherit the obligation.
func transferred(n int) []byte {
	b := helper.Encode(n)
	return b
}

// transferCaller leaks the buffer transferred out of the local helper
// above — the obligation followed the summary chain two hops from the Get.
func transferCaller(n int) {
	b := transferred(n)
	use(b)
} // want `bufpool buffer b reaches function end without bufpool\.Put`

// receivedLeak hands its generation to the exchange — the sends discharge
// it — but drops what it received: the receiver owns those buffers now.
func receivedLeak(c *mpi.Comm, n int) {
	parts := make([][]byte, c.Size())
	helper.Fill(parts, n)
	msgs := helper.Exchange(c, parts)
	use(msgs[0])
} // want `bufpool buffer msgs reaches function end without bufpool\.Put`

// receivedRecycled is the exchange round done right: the sender puts
// nothing, the receiver puts what arrived.
func receivedRecycled(c *mpi.Comm, n int) {
	parts := make([][]byte, c.Size())
	helper.Fill(parts, n)
	msgs := helper.Exchange(c, parts)
	use(msgs[0])
	helper.ReleaseAll(msgs)
}
