package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pnetcdf/internal/access"
	"pnetcdf/internal/cdf"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/nctype"
)

// TestMemCodecPieces holds the codec to the whole-request codecs it stands in
// for: a request cut into pieces at arbitrary byte offsets (inside elements
// too) and handed over in any order encodes to EncodeSegs' bytes and decodes
// to what DecodeSegs fills, with some read pieces handed over twice, as a
// failover replay may.
func TestMemCodecPieces(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	types := []nctype.Type{nctype.Byte, nctype.Short, nctype.Int, nctype.Float, nctype.Double, nctype.Int64}
	for trial := 0; trial < 300; trial++ {
		typ := types[rng.Intn(len(types))]
		memLen := int64(1 + rng.Intn(200))
		var runs []mpitype.Segment // nil: contiguous
		nelems := memLen
		if rng.Intn(2) == 0 {
			nelems = 0
			for off := int64(rng.Intn(3)); off < memLen; {
				l := min(int64(rng.Intn(9)), memLen-off) // zero-length runs included
				runs = append(runs, mpitype.Segment{Off: off, Len: l})
				nelems += l
				off += l + int64(rng.Intn(4))
			}
		}
		src := make([]float64, memLen)
		for i := range src {
			src[i] = float64(rng.Intn(200) - 100)
		}
		all := runs
		if all == nil {
			all = []mpitype.Segment{{Len: memLen}}
		}
		want, err := cdf.EncodeSegs(nil, typ, src, all)
		if err != nil {
			t.Fatal(err)
		}
		wantMem := make([]float64, memLen)
		if err := cdf.DecodeSegs(want, typ, all, wantMem); err != nil {
			t.Fatal(err)
		}
		pieces := cutPieces(rng, int64(len(want)))
		where := fmt.Sprintf("trial %d: %v, %d elements, runs %v, pieces %v", trial, typ, nelems, runs, pieces)

		var c memCodec
		op := &pendingOp{v: &cdf.Var{Type: typ}, req: access.Request{NElems: nelems}, data: src, memsegs: runs}
		c.reset(op)
		got := make([]byte, len(want))
		for _, p := range pieces {
			c.Fill(got[p[0]:p[1]], p[0])
		}
		if err := c.release(); err != nil {
			t.Fatalf("%s: encode: %v", where, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: pieces encode to %x, want %x", where, got, want)
		}

		mem := make([]float64, memLen)
		op.data = mem
		c.reset(op)
		for _, p := range append(pieces, pieces[:rng.Intn(len(pieces)+1)]...) {
			c.Drain(p[0], want[p[0]:p[1]])
		}
		if err := c.release(); err != nil {
			t.Fatalf("%s: decode: %v", where, err)
		}
		if !slices.Equal(mem, wantMem) {
			t.Fatalf("%s: pieces decode to %v, want %v", where, mem, wantMem)
		}
	}
}

// cutPieces cuts [0, n) into pieces at random offsets and shuffles them.
func cutPieces(rng *rand.Rand, n int64) [][2]int64 {
	var out [][2]int64
	for lo := int64(0); lo < n; {
		hi := min(n, lo+1+rng.Int63n(20))
		out = append(out, [2]int64{lo, hi})
		lo = hi
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
