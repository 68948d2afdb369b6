// Package helper moves pooled buffers across the package boundary in the
// summary shapes: returning one, parking them in a caller slice, putting
// them back, and moving them to another rank.
package helper

import (
	"pnetcdf/internal/bufpool"
	"pnetcdf/internal/mpi"
)

// Encode returns a pooled buffer whose custody passes to the caller.
func Encode(n int) []byte {
	b := bufpool.Get(n) //nclint:escape -- returned to the caller, which owns the Put
	return b
}

// Release discharges a buffer on the caller's behalf.
func Release(b []byte) { bufpool.Put(b) }

// ReleaseAll discharges a whole generation.
func ReleaseAll(parts [][]byte) { bufpool.PutAll(parts) }

// Fill parks pooled buffers in the caller's slice (custody transfers out
// through the parts parameter, like packWriteRound).
func Fill(parts [][]byte, n int) {
	for i := range parts {
		parts[i] = Encode(n)
	}
}

// Exchange gives every parked buffer to its destination rank and returns
// what this rank received (custody of parts ends at Comm.Send; custody of
// the result begins at Comm.Recv, like sparseExchange).
func Exchange(c *mpi.Comm, parts [][]byte) [][]byte {
	for dst := range parts {
		c.Send(dst, 1, parts[dst])
		parts[dst] = nil
	}
	out := make([][]byte, len(parts))
	for range parts {
		blob, src := c.Recv(mpi.AnySource, 1)
		out[src] = blob
	}
	return out
}
