package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Internal tags used within one collective context. Each collective call has
// a unique context (nextOpCtx), so tags only separate message roles inside a
// single operation.
const (
	tagFanIn  = 1
	tagFanOut = 2
	tagData   = 3
)

// Barrier blocks until every member has entered it, like MPI_Barrier.
// Implemented as a binomial fan-in to rank 0 followed by a fan-out, so its
// virtual-time cost is ~2*ceil(log2(p)) message latencies.
func (c *Comm) Barrier() {
	ctx := c.nextOpCtx("Barrier")
	c.fanIn(0, ctx, nil)
	c.fanOut(0, ctx, nil)
}

// fanIn sends a zero/merged token up a binomial tree rooted at root.
// If combine is non-nil it folds children's payloads into the local one and
// returns the root's folded payload (nil on non-roots).
func (c *Comm) fanIn(root int, ctx int64, combine func(local, child []byte) []byte) []byte {
	p := c.Size()
	vrank := (c.rank - root + p) % p
	var local []byte
	if combine != nil {
		local = combine(nil, nil) // seed with the caller's own contribution
	}
	for mask := 1; mask < p; mask <<= 1 {
		if vrank&mask != 0 {
			parent := ((vrank &^ mask) + root) % p
			c.send(parent, tagFanIn, ctx, local)
			return nil
		}
		child := vrank | mask
		if child < p {
			m := c.recv((child+root)%p, tagFanIn, ctx)
			if combine != nil {
				local = combine(local, m.data)
			}
		}
	}
	return local
}

// fanOut distributes data down a binomial tree rooted at root and returns
// the received payload (the root returns data unchanged). Interior ranks
// forward the slice they received, so one backing array reaches every
// member: data must be a buffer nobody writes to again.
func (c *Comm) fanOut(root int, ctx int64, data []byte) []byte {
	p := c.Size()
	vrank := (c.rank - root + p) % p
	// Find this rank's receive mask: the lowest set bit of vrank.
	recvMask := 0
	for mask := 1; mask < p; mask <<= 1 {
		if vrank&mask != 0 {
			recvMask = mask
			break
		}
	}
	if recvMask != 0 {
		parent := ((vrank &^ recvMask) + root) % p
		m := c.recv(parent, tagFanOut, ctx)
		data = m.data
	}
	// Forward to children: set each zero bit below recvMask (for the root,
	// below the smallest power of two >= p), highest first.
	top := recvMask
	if vrank == 0 {
		top = 1
		for top < p {
			top <<= 1
		}
	}
	for mask := top >> 1; mask >= 1; mask >>= 1 {
		child := vrank | mask
		if child != vrank && child < p {
			c.send((child+root)%p, tagFanOut, ctx, data)
		}
	}
	return data
}

// Bcast broadcasts data from root to every member, like MPI_Bcast. Non-root
// callers pass nil (or anything; it is replaced by the root's payload). The
// root gets data back and may reuse it at once: what travels is one copy of
// it, and every non-root member receives that same copy — a shared backing
// array they must treat as read-only (copy before modifying).
func (c *Comm) Bcast(root int, data []byte) []byte {
	if c.rank == root && c.Size() > 1 {
		c.bcastOwned(root, bytes.Clone(data))
		return data
	}
	return c.bcastOwned(root, data)
}

// bcastOwned is Bcast for a wire buffer the caller built for this call and
// never writes again: it travels as it is, and the root's return value
// aliases what the other members received.
func (c *Comm) bcastOwned(root int, wire []byte) []byte {
	ctx := c.nextOpCtx("Bcast")
	return c.fanOut(root, ctx, wire)
}

// Gather collects each member's payload at root, like MPI_Gatherv (payloads
// may differ in length). The root receives a slice indexed by rank; other
// ranks receive nil.
func (c *Comm) Gather(root int, data []byte) [][]byte {
	ctx := c.nextOpCtx("Gather")
	if c.rank != root {
		c.send(root, tagData, ctx, bytes.Clone(data))
		return nil
	}
	out := make([][]byte, c.Size())
	out[root] = append([]byte(nil), data...)
	for i := 0; i < c.Size()-1; i++ {
		m := c.recv(AnySource, tagData, ctx)
		out[m.src] = m.data
	}
	return out
}

// Allgather collects every member's payload on every member, indexed by
// rank, like MPI_Allgatherv.
func (c *Comm) Allgather(data []byte) [][]byte {
	parts := c.Gather(0, data)
	blob := c.bcastOwned(0, encodeParts(parts))
	return decodeParts(blob)
}

// Scatter distributes parts[i] from root to rank i, like MPI_Scatterv.
// Non-root callers pass nil. Each part is copied once, so the root keeps
// parts and every member owns what it receives.
func (c *Comm) Scatter(root int, parts [][]byte) []byte {
	ctx := c.nextOpCtx("Scatter")
	if c.rank == root {
		if len(parts) != c.Size() {
			c.Abort(fmt.Errorf("mpi: Scatter with %d parts on %d ranks", len(parts), c.Size()))
		}
		for r := 0; r < c.Size(); r++ {
			if r != root {
				c.send(r, tagData, ctx, bytes.Clone(parts[r]))
			}
		}
		return append([]byte(nil), parts[root]...)
	}
	return c.recv(root, tagData, ctx).data
}

// Alltoall sends parts[i] to rank i and returns the payloads received from
// every rank, indexed by source, like MPI_Alltoallv. Entries may be empty.
// Each part is copied once: parts is only read (ranks may even share one),
// and every member owns what it receives.
func (c *Comm) Alltoall(parts [][]byte) [][]byte {
	if len(parts) != c.Size() {
		c.Abort(fmt.Errorf("mpi: Alltoall with %d parts on %d ranks", len(parts), c.Size()))
	}
	ctx := c.nextOpCtx("Alltoall")
	out := make([][]byte, c.Size())
	out[c.rank] = append([]byte(nil), parts[c.rank]...)
	for r := 0; r < c.Size(); r++ {
		if r != c.rank {
			c.send(r, tagData, ctx, bytes.Clone(parts[r]))
		}
	}
	for i := 0; i < c.Size()-1; i++ {
		m := c.recv(AnySource, tagData, ctx)
		out[m.src] = m.data
	}
	return out
}

// Op is a reduction operator.
type Op int

// Reduction operators, as in MPI.
const (
	OpSum Op = iota
	OpMin
	OpMax
	OpLAnd // logical and of nonzero values
	OpBOr  // bitwise or (integers only)
)

func reduceI64(op Op, a, b int64) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpMin:
		if b < a {
			return b
		}
		return a
	case OpMax:
		if b > a {
			return b
		}
		return a
	case OpLAnd:
		if a != 0 && b != 0 {
			return 1
		}
		return 0
	case OpBOr:
		return a | b
	}
	return a
}

func reduceF64(op Op, a, b float64) float64 {
	switch op {
	case OpSum:
		return a + b
	case OpMin:
		return math.Min(a, b)
	case OpMax:
		return math.Max(a, b)
	}
	return a
}

// ReduceI64 reduces elementwise int64 vectors to root, like MPI_Reduce.
// Non-roots receive nil. All members must pass equal-length vectors.
func (c *Comm) ReduceI64(root int, vals []int64, op Op) []int64 {
	ctx := c.nextOpCtx("ReduceI64")
	res := c.fanIn(root, ctx, func(local, child []byte) []byte {
		if local == nil && child == nil {
			return EncodeI64s(vals)
		}
		a, b := DecodeI64s(local), DecodeI64s(child)
		for i := range a {
			a[i] = reduceI64(op, a[i], b[i])
		}
		return EncodeI64s(a)
	})
	if c.rank != root {
		return nil
	}
	return DecodeI64s(res)
}

// AllreduceI64 reduces elementwise and distributes the result to all,
// like MPI_Allreduce.
func (c *Comm) AllreduceI64(vals []int64, op Op) []int64 {
	res := c.ReduceI64(0, vals, op)
	return DecodeI64s(c.bcastOwned(0, EncodeI64s(res)))
}

// ReduceF64 reduces elementwise float64 vectors to root. The combination
// order follows the binomial tree deterministically, so results are
// reproducible run to run.
func (c *Comm) ReduceF64(root int, vals []float64, op Op) []float64 {
	ctx := c.nextOpCtx("ReduceF64")
	res := c.fanIn(root, ctx, func(local, child []byte) []byte {
		if local == nil && child == nil {
			return EncodeF64s(vals)
		}
		a, b := DecodeF64s(local), DecodeF64s(child)
		for i := range a {
			a[i] = reduceF64(op, a[i], b[i])
		}
		return EncodeF64s(a)
	})
	if c.rank != root {
		return nil
	}
	return DecodeF64s(res)
}

// AllreduceF64 reduces elementwise and distributes the result to all.
func (c *Comm) AllreduceF64(vals []float64, op Op) []float64 {
	res := c.ReduceF64(0, vals, op)
	return DecodeF64s(c.bcastOwned(0, EncodeF64s(res)))
}

// ExscanI64 computes the exclusive prefix reduction: rank r receives the
// reduction of ranks 0..r-1 (identity on rank 0), like MPI_Exscan with a
// linear chain. Used for computing record offsets when appending.
func (c *Comm) ExscanI64(vals []int64, op Op) []int64 {
	ctx := c.nextOpCtx("ExscanI64")
	acc := make([]int64, len(vals))
	if op == OpMin {
		for i := range acc {
			acc[i] = math.MaxInt64
		}
	}
	if op == OpMax {
		for i := range acc {
			acc[i] = math.MinInt64
		}
	}
	if c.rank > 0 {
		acc = DecodeI64s(c.recv(c.rank-1, tagData, ctx).data)
	}
	if c.rank < c.Size()-1 {
		next := make([]int64, len(vals))
		for i := range vals {
			next[i] = reduceI64(op, acc[i], vals[i])
		}
		c.send(c.rank+1, tagData, ctx, EncodeI64s(next))
	}
	return acc
}

// ErrPeerFailed is the error a rank receives from AgreeError when some
// other member of the communicator reported a failure. Every rank of a
// collective operation returns a non-nil error together: the failing
// rank(s) see their own error, the rest see ErrPeerFailed.
var ErrPeerFailed = errors.New("mpi: collective operation failed on a peer rank")

// AgreeError is the collective error-agreement primitive: every member
// contributes its local error status, and either all members return nil
// (nobody failed) or all return a non-nil error — the local one where it
// exists, ErrPeerFailed elsewhere. Calling it after each phase of a
// multi-round collective guarantees no rank hangs waiting on a peer that
// bailed, and that all ranks agree on whether the operation succeeded.
func (c *Comm) AgreeError(err error) error {
	flag := int64(0)
	if err != nil {
		flag = 1
	}
	if c.AllreduceI64([]int64{flag}, OpMax)[0] == 0 {
		return nil
	}
	if err != nil {
		return err
	}
	return ErrPeerFailed
}

// AgreeSame verifies that every member passed a byte-identical payload,
// returning true everywhere if so. PnetCDF uses it for define-mode argument
// consistency checks.
func (c *Comm) AgreeSame(data []byte) bool {
	ref := c.Bcast(0, data)
	same := int64(0)
	if bytes.Equal(ref, data) {
		same = 1
	}
	return c.AllreduceI64([]int64{same}, OpLAnd)[0] == 1
}

// EncodeI64s packs int64s big-endian.
func EncodeI64s(vals []int64) []byte {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.BigEndian.PutUint64(buf[i*8:], uint64(v))
	}
	return buf
}

// DecodeI64s unpacks int64s packed by EncodeI64s.
func DecodeI64s(buf []byte) []int64 {
	vals := make([]int64, len(buf)/8)
	for i := range vals {
		vals[i] = int64(binary.BigEndian.Uint64(buf[i*8:]))
	}
	return vals
}

// EncodeF64s packs float64s big-endian.
func EncodeF64s(vals []float64) []byte {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.BigEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	return buf
}

// DecodeF64s unpacks float64s packed by EncodeF64s.
func DecodeF64s(buf []byte) []float64 {
	vals := make([]float64, len(buf)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.BigEndian.Uint64(buf[i*8:]))
	}
	return vals
}

func encodeParts(parts [][]byte) []byte {
	var buf []byte
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(parts)))
	for _, p := range parts {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(p)))
		buf = append(buf, p...)
	}
	return buf
}

func decodeParts(buf []byte) [][]byte {
	n := binary.BigEndian.Uint32(buf)
	buf = buf[4:]
	parts := make([][]byte, n)
	for i := range parts {
		l := binary.BigEndian.Uint32(buf)
		buf = buf[4:]
		parts[i] = append([]byte(nil), buf[:l]...)
		buf = buf[l:]
	}
	return parts
}
