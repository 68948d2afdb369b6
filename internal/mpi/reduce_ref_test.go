package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pnetcdf/internal/iostat"
)

// The reductions' wire identity. The engine (reduceUp/reduceDown: fold
// straight from the wire into the caller's vector, pooled buffers, one
// copy per child) replaced a tree that encoded, decoded, folded and
// re-encoded on every edge. That tree is kept below as the reference, and
// TestReductionsMatchReferenceTree holds the two to the same results
// (float64 bit for bit), the same virtual clock on every rank and the same
// message and collective counters.

func refEncodeF64s(vals []float64) []byte {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.BigEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	return buf
}

func refDecodeF64s(buf []byte) []float64 {
	vals := make([]float64, len(buf)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.BigEndian.Uint64(buf[i*8:]))
	}
	return vals
}

// refFanIn sends a merged token up a binomial tree rooted at root, folding
// children's payloads into the local one with combine, and returns the
// root's folded payload (nil on non-roots).
func refFanIn(c *Comm, root int, ctx int64, combine func(local, child []byte) []byte) []byte {
	p := c.Size()
	vrank := (c.rank - root + p) % p
	local := combine(nil, nil)
	for mask := 1; mask < p; mask <<= 1 {
		if vrank&mask != 0 {
			parent := ((vrank &^ mask) + root) % p
			c.send(parent, tagFanIn, ctx, local)
			return nil
		}
		child := vrank | mask
		if child < p {
			m := c.recv((child+root)%p, tagFanIn, ctx)
			local = combine(local, m.data)
		}
	}
	return local
}

// refFanOut distributes data down a binomial tree rooted at root, every
// interior rank forwarding the slice it received.
func refFanOut(c *Comm, root int, ctx int64, data []byte) []byte {
	p := c.Size()
	vrank := (c.rank - root + p) % p
	recvMask := 0
	for mask := 1; mask < p; mask <<= 1 {
		if vrank&mask != 0 {
			recvMask = mask
			break
		}
	}
	if recvMask != 0 {
		parent := ((vrank &^ recvMask) + root) % p
		data = c.recv(parent, tagFanOut, ctx).data
	}
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

func refReduceI64(c *Comm, root int, vals []int64, op reduceOp) []int64 {
	ctx := c.nextOpCtx(opReduceI64)
	res := refFanIn(c, root, ctx, func(local, child []byte) []byte {
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

func refAllreduceI64(c *Comm, vals []int64, op reduceOp) []int64 {
	res := refReduceI64(c, 0, vals, op)
	return DecodeI64s(refFanOut(c, 0, c.nextOpCtx(opBcast), EncodeI64s(res)))
}

func refReduceF64(c *Comm, root int, vals []float64, op reduceOp) []float64 {
	ctx := c.nextOpCtx(opReduceF64)
	res := refFanIn(c, root, ctx, func(local, child []byte) []byte {
		if local == nil && child == nil {
			return refEncodeF64s(vals)
		}
		a, b := refDecodeF64s(local), refDecodeF64s(child)
		for i := range a {
			a[i] = reduceF64(op, a[i], b[i])
		}
		return refEncodeF64s(a)
	})
	if c.rank != root {
		return nil
	}
	return refDecodeF64s(res)
}

func refAllreduceF64(c *Comm, vals []float64, op reduceOp) []float64 {
	res := refReduceF64(c, 0, vals, op)
	return refDecodeF64s(refFanOut(c, 0, c.nextOpCtx(opBcast), refEncodeF64s(res)))
}

var allOps = []reduceOp{OpSum, OpMin, OpMax}

// reductionInputs returns rank's vectors of length n: int64s of mixed sign
// and size, some zero, and float64s whose magnitudes span 30
// decades, so their sum depends on the order it is taken in.
func reductionInputs(rank, n int) ([]int64, []float64) {
	rng := rand.New(rand.NewSource(int64(1000*rank + n)))
	iv, fv := make([]int64, n), make([]float64, n)
	for k := range iv {
		if rng.Intn(4) != 0 {
			iv[k] = rng.Int63n(1<<40) - 1<<39
		}
		fv[k] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(30)-15))
	}
	return iv, fv
}

// reductionRecord is what one rank observed in one world: every result, as
// bits, and its clock after every call, plus what its counters grew by
// since the last mark.
type reductionRecord struct {
	results []uint64
	clocks  []float64
	msgs    int64
	bytes   int64
	colls   int64
}

func (r *reductionRecord) ints(v []int64) {
	for _, x := range v {
		r.results = append(r.results, uint64(x))
	}
}

func (r *reductionRecord) floats(v []float64) {
	for _, x := range v {
		r.results = append(r.results, math.Float64bits(x))
	}
}

// recordWorld runs body on p ranks, each starting at its own clock, and
// returns every rank's record.
func recordWorld(t *testing.T, p int, body func(c *Comm, rec *reductionRecord)) []*reductionRecord {
	t.Helper()
	recs := make([]*reductionRecord, p)
	err := Run(p, DefaultNet(), func(c *Comm) error {
		st := iostat.New()
		c.Proc().SetStats(st)
		c.Proc().SetClock(float64(c.Rank()*(c.Rank()+3)) * 1e-6)
		rec := &reductionRecord{}
		body(c, rec)
		rec.msgs += st.Get(iostat.MPIMsgsSent)
		rec.bytes += st.Get(iostat.MPIBytesSent)
		rec.colls += st.Get(iostat.MPICollectives)
		recs[c.Rank()] = rec
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func compareRecords(t *testing.T, what string, got, want []*reductionRecord) {
	t.Helper()
	for r := range want {
		g, w := got[r], want[r]
		switch {
		case !slices.Equal(g.results, w.results):
			t.Fatalf("%s: rank %d results differ from the reference tree's:\n got %x\nwant %x", what, r, g.results, w.results)
		case !slices.Equal(g.clocks, w.clocks):
			t.Fatalf("%s: rank %d clocks %v, the reference tree's %v", what, r, g.clocks, w.clocks)
		case g.msgs != w.msgs || g.bytes != w.bytes || g.colls != w.colls:
			t.Fatalf("%s: rank %d sent %d msgs / %d B in %d collectives, the reference tree %d / %d in %d",
				what, r, g.msgs, g.bytes, g.colls, w.msgs, w.bytes, w.colls)
		}
	}
}

// TestReductionsMatchReferenceTree: Allreduce, int64 and float64, on 1, 2,
// 3, 5, 8 and 13 ranks, with vectors of 0, 1 and P elements and every
// operator, gives the reference tree's results, clocks and counters.
func TestReductionsMatchReferenceTree(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 13} {
		for _, n := range []int{0, 1, p} {
			for _, op := range allOps {
				run := func(ref bool) []*reductionRecord {
					return recordWorld(t, p, func(c *Comm, rec *reductionRecord) {
						iv, fv := reductionInputs(c.Rank(), n)
						if ref {
							rec.ints(refAllreduceI64(c, iv, op))
							rec.clocks = append(rec.clocks, c.Clock())
							rec.floats(refAllreduceF64(c, fv, op))
						} else {
							rec.ints(c.AllreduceI64(slices.Clone(iv), op))
							rec.clocks = append(rec.clocks, c.Clock())
							rec.floats(c.AllreduceF64(slices.Clone(fv), op))
						}
						rec.clocks = append(rec.clocks, c.Clock())
					})
				}
				compareRecords(t, fmt.Sprintf("P=%d n=%d op=%d", p, n, op), run(false), run(true))
			}
		}
	}
}
