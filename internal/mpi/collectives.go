package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"pnetcdf/internal/bufpool"
)

// Internal tags used within one collective context. Each collective call has
// a unique context (nextOpCtx), so tags only separate message roles inside a
// single operation.
const (
	tagFanIn  = 1
	tagFanOut = 2
	tagData   = 3
	// A long-message Bcast's scatter and allgather (bcastOwned); the tag of
	// a member's first message tells it which algorithm runs.
	tagScatter = 4
	tagRing    = 5
)

// Barrier blocks until every member has entered it, like MPI_Barrier: a
// reduction of nothing over the binomial tree rooted at rank 0 — empty
// tokens up, empty tokens down — so its virtual-time cost is
// ~2*ceil(log2(p)) message latencies.
func (c *Comm) Barrier() {
	ctx := c.nextOpCtx(opBarrier)
	t := c.commTree(0)
	c.reduceUp(&t, ctx, vec{}, OpSum)
	c.reduceDown(&t, ctx, vec{})
}

// tree is a binomial tree over p members addressed by dense index, the root
// at index 0: member i is comm rank members[i] or, with members nil, comm
// rank (i+root) mod p — the tree of a collective over the whole
// communicator. me is the calling rank's index.
//
// A tree with pinned set runs on a revoked communicator, on behalf of the
// handler of revocation *pinned (AgreeFT): its sends skip the revocation
// check (the caller IS the revocation handler), and its receives unwind
// only on a revocation beyond that generation (a further death).
type tree struct {
	p, me, root int
	members     []int
	pinned      *revokeInfo
}

// commTree is the tree over every member of c, rooted at comm rank root.
func (c *Comm) commTree(root int) tree {
	p := c.Size()
	return tree{p: p, me: (c.rank - root + p) % p, root: root}
}

// rank is member i's comm rank.
func (t *tree) rank(i int) int {
	if t.members != nil {
		return t.members[i]
	}
	return (i + t.root) % t.p
}

// span is the width of member me's subtree: the lowest set bit of me, and
// for the root the smallest power of two >= p. The children of me are
// me+m for every power of two m < span with me+m < p; its parent is
// me-span.
func (t *tree) span() int {
	if t.me != 0 {
		return t.me & -t.me
	}
	s := 1
	for s < t.p {
		s <<= 1
	}
	return s
}

func (c *Comm) treeSend(t *tree, i, tag int, ctx int64, data []byte) {
	c.sendCore(t.rank(i), tag, ctx, data, t.pinned != nil)
}

func (c *Comm) treeRecv(t *tree, i, tag int, ctx int64) []byte {
	return c.recvCore(t.rank(i), tag, ctx, t.pinned).data
}

// reduceUp is the fan-in half of a reduction over t under ctx. Each member
// folds its children's partials into acc, smallest subtree first, straight
// from the wire (acc = acc op child: the fixed order that keeps float sums
// reproducible), putting each child's buffer back once folded; every
// member but the root then sends its partial to its parent in a pooled
// buffer of its own. On the root acc ends up holding the reduction.
func (c *Comm) reduceUp(t *tree, ctx int64, acc vec, op Op) {
	s := t.span()
	for m := 1; m < s; m <<= 1 {
		if child := t.me + m; child < t.p {
			wire := c.treeRecv(t, child, tagFanIn, ctx)
			acc.fold(c, ctx, op, wire)
			bufpool.Put(wire)
		}
	}
	if t.me != 0 {
		c.treeSend(t, t.me-s, tagFanIn, ctx, acc.encode())
	}
}

// reduceDown is the fan-out half: every member but the root receives the
// result from its parent, decodes it into acc and puts the buffer back;
// then each member sends every child its own pooled copy, largest subtree
// first.
func (c *Comm) reduceDown(t *tree, ctx int64, acc vec) {
	s := t.span()
	if t.me != 0 {
		wire := c.treeRecv(t, t.me-s, tagFanOut, ctx)
		acc.decode(c, ctx, wire)
		bufpool.Put(wire)
	}
	for m := s >> 1; m >= 1; m >>= 1 {
		if child := t.me + m; child < t.p {
			c.treeSend(t, child, tagFanOut, ctx, acc.encode())
		}
	}
}

// Bcast broadcasts data from root to every member, like MPI_Bcast. Non-root
// callers pass nil (or anything; it is replaced by the root's payload). The
// root gets data back and may reuse it at once: what travels is one copy of
// it, and every non-root member receives that same copy — a shared backing
// array they must treat as read-only (copy before modifying).
//
// The algorithm is MPICH's: a payload shorter than bcastLong, or a
// communicator of fewer than bcastLongMin members, goes down a binomial tree,
// ceil(log2 p) × (α + nβ) for a latency α and a whole-payload transfer nβ. A
// longer one is scattered down the same tree in p pieces and then gathered
// around a ring (van de Geijn), (log2 p + p − 1)α + 2(p−1)/p nβ.
func (c *Comm) Bcast(root int, data []byte) []byte {
	if c.rank == root && c.Size() > 1 {
		c.bcastOwned(root, bytes.Clone(data))
		return data
	}
	return c.bcastOwned(root, data)
}

// BcastOwned is Bcast without the root's copy: the root gives data up as it
// would to Send, and every member, the root included, returns that one
// backing array, read-only.
func (c *Comm) BcastOwned(root int, data []byte) []byte {
	return c.bcastOwned(root, data)
}

// bcastLong and bcastLongMin select Bcast's long-message algorithm: from
// bcastLong bytes on at least bcastLongMin members. Under DefaultNet that is
// where it beats the tree on every communicator of 4 to 160 members; the
// crossover grows with p, since the ring pays (p−1)α — about 40 KiB at 8
// members, 110 KiB at 64, 180 KiB at 128. A sender pays only its injection
// overhead, so with 2 or 3 members the root reaches everyone in one hop, and
// no split of the payload can beat that.
const (
	bcastLong    = 256 << 10
	bcastLongMin = 4
)

// bcastOwned is Bcast for a wire buffer the caller built for this call and
// never writes again. Every message carries wire itself — interior members
// forward the slice they received — so the root's return value aliases what
// every other member received. The root picks the algorithm and sends it
// down in the tag; a non-root reads it off its parent's message.
//
// The long algorithm charges each message only its piece (sendSized): the
// root's scatter to a child covers the child's subtree, [child, child+m)
// pieces of ceil(n/p) bytes, and in ring step k member i passes piece i−k
// to member i+1. Every member already holds all of wire after the scatter;
// the ring is the time the pieces take to meet.
func (c *Comm) bcastOwned(root int, wire []byte) []byte {
	ctx := c.nextOpCtx(opBcast)
	t := c.commTree(root)
	s := t.span()
	tag := tagFanOut
	if t.me != 0 {
		m := c.recvCore(t.rank(t.me-s), AnyTag, ctx, nil)
		wire, tag = m.data, m.tag
	} else if len(wire) >= bcastLong && t.p >= bcastLongMin {
		tag = tagScatter
	}
	if tag == tagFanOut {
		for m := s >> 1; m >= 1; m >>= 1 {
			if child := t.me + m; child < t.p {
				c.treeSend(&t, child, tagFanOut, ctx, wire)
			}
		}
		return wire
	}
	n, chunk := len(wire), (len(wire)+t.p-1)/t.p
	piece := func(lo, hi int) int { return min(hi*chunk, n) - min(lo*chunk, n) }
	for m := s >> 1; m >= 1; m >>= 1 {
		if child := t.me + m; child < t.p {
			c.sendSized(t.rank(child), tagScatter, ctx, wire, piece(child, child+m), false)
		}
	}
	right, left := t.rank((t.me+1)%t.p), t.rank((t.me+t.p-1)%t.p)
	for k := 0; k < t.p-1; k++ {
		i := (t.me - k + t.p) % t.p
		c.sendSized(right, tagRing, ctx, wire, piece(i, i+1), false)
		c.recvCore(left, tagRing, ctx, nil)
	}
	return wire
}

// Gather collects each member's payload at root, like MPI_Gatherv (payloads
// may differ in length). The root receives a slice indexed by rank; other
// ranks receive nil.
func (c *Comm) Gather(root int, data []byte) [][]byte {
	ctx := c.nextOpCtx(opGather)
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
	ctx := c.nextOpCtx(opScatter)
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
	ctx := c.nextOpCtx(opAlltoall)
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

// vec is a reduction's accumulator: int64 or float64 elements, in one of
// the two slices (both empty for a barrier). A partial travels as 8
// big-endian bytes per element in a bufpool buffer.
type vec struct {
	i []int64
	f []float64
}

func (v vec) len() int { return len(v.i) + len(v.f) }

// encode returns v's wire form in a pooled buffer; nil when v is empty (a
// barrier's token).
func (v vec) encode() []byte {
	if v.len() == 0 {
		return nil
	}
	// Sent to a tree neighbour, whose reduceUp/reduceDown puts it back once
	// folded or decoded (DESIGN.md §9, custody).
	wire := bufpool.GetDirty(8 * v.len())
	for k, x := range v.i {
		binary.BigEndian.PutUint64(wire[8*k:], uint64(x))
	}
	for k, x := range v.f {
		binary.BigEndian.PutUint64(wire[8*k:], math.Float64bits(x))
	}
	return wire
}

// fits aborts the world unless wire holds exactly v's elements: the members
// of the collective under ctx passed vectors of different lengths, and
// reading the bytes anyway would index past one end or drop the other.
func (v vec) fits(c *Comm, ctx int64, wire []byte) {
	if len(wire) == 8*v.len() {
		return
	}
	op, seq := ctxOp(ctx)
	c.Abort(fmt.Errorf("mpi: %s (collective %d on communicator %d): rank %d holds %d elements but a peer sent %d; every member must pass the same length",
		op, seq, ctx>>32, c.rank, v.len(), len(wire)/8))
}

// decode overwrites v with the wire vector received under ctx.
func (v vec) decode(c *Comm, ctx int64, wire []byte) {
	v.fits(c, ctx, wire)
	for k := range v.i {
		v.i[k] = int64(binary.BigEndian.Uint64(wire[8*k:]))
	}
	for k := range v.f {
		v.f[k] = math.Float64frombits(binary.BigEndian.Uint64(wire[8*k:]))
	}
}

// fold combines a child's wire vector, received under ctx, into v
// elementwise: v = v op child.
func (v vec) fold(c *Comm, ctx int64, op Op, wire []byte) {
	v.fits(c, ctx, wire)
	for k := range v.i {
		v.i[k] = reduceI64(op, v.i[k], int64(binary.BigEndian.Uint64(wire[8*k:])))
	}
	for k := range v.f {
		v.f[k] = reduceF64(op, v.f[k], math.Float64frombits(binary.BigEndian.Uint64(wire[8*k:])))
	}
}

// allreduce reduces acc in place over the whole communicator: a fan-in to
// rank 0 under the context of a reduce collective, then a fan-out under a
// Bcast's — two collectives, as a Reduce followed by a Bcast.
func (c *Comm) allreduce(acc vec, op Op, reduce opKind) {
	t := c.commTree(0)
	c.reduceUp(&t, c.nextOpCtx(reduce), acc, op)
	c.reduceDown(&t, c.nextOpCtx(opBcast), acc)
}

// ReduceI64 reduces elementwise int64 vectors to root, like MPI_Reduce.
// Non-roots receive nil. All members must pass equal-length vectors; vals
// is only read.
func (c *Comm) ReduceI64(root int, vals []int64, op Op) []int64 {
	acc := slices.Clone(vals)
	t := c.commTree(root)
	c.reduceUp(&t, c.nextOpCtx(opReduceI64), vec{i: acc}, op)
	if c.rank != root {
		return nil
	}
	return acc
}

// AllreduceI64 reduces elementwise and distributes the result to all, like
// MPI_Allreduce with MPI_IN_PLACE: the result overwrites vals, which is
// returned.
func (c *Comm) AllreduceI64(vals []int64, op Op) []int64 {
	c.allreduce(vec{i: vals}, op, opReduceI64)
	return vals
}

// ReduceF64 reduces elementwise float64 vectors to root. The combination
// order follows the binomial tree deterministically, so results are
// reproducible run to run.
func (c *Comm) ReduceF64(root int, vals []float64, op Op) []float64 {
	acc := slices.Clone(vals)
	t := c.commTree(root)
	c.reduceUp(&t, c.nextOpCtx(opReduceF64), vec{f: acc}, op)
	if c.rank != root {
		return nil
	}
	return acc
}

// AllreduceF64 reduces elementwise and distributes the result to all, in
// place like AllreduceI64.
func (c *Comm) AllreduceF64(vals []float64, op Op) []float64 {
	c.allreduce(vec{f: vals}, op, opReduceF64)
	return vals
}

// ExscanI64 computes the exclusive prefix reduction: rank r receives the
// reduction of ranks 0..r-1 (identity on rank 0), like MPI_Exscan with a
// linear chain. Used for computing record offsets when appending.
func (c *Comm) ExscanI64(vals []int64, op Op) []int64 {
	ctx := c.nextOpCtx(opExscanI64)
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
		wire := c.recv(c.rank-1, tagData, ctx).data
		vec{i: acc}.decode(c, ctx, wire)
		bufpool.Put(wire)
	}
	if c.rank < c.Size()-1 {
		next := make([]int64, len(vals))
		for i := range vals {
			next[i] = reduceI64(op, acc[i], vals[i])
		}
		c.send(c.rank+1, tagData, ctx, vec{i: next}.encode())
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

// AgreeDigest reports, on every member, whether all members passed the same
// 32-byte digest (PnetCDF's define-mode consistency check hashes each
// member's header into one). A single allreduce under OpMin carries the four
// digest words and their bitwise complements: the minimum of ^w is ^max(w),
// so a word is the same everywhere iff its minimum is the complement of its
// complement's minimum. Negation would not do: -MinInt64 wraps to itself.
func (c *Comm) AgreeDigest(sum [32]byte) bool {
	var v [8]int64
	for i := 0; i < 4; i++ {
		w := int64(binary.BigEndian.Uint64(sum[8*i:]))
		v[i], v[4+i] = w, ^w
	}
	c.AllreduceI64(v[:], OpMin)
	for i := 0; i < 4; i++ {
		if v[i] != ^v[4+i] {
			return false
		}
	}
	return true
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
