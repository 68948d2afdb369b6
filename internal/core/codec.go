package core

import (
	"cmp"
	"math/bits"
	"slices"

	"pnetcdf/internal/cdf"
	"pnetcdf/internal/mpiio"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/nctype"
)

// codec is what one direction of a completion hands MPI-IO: the one moving
// op's memCodec, or the merged source and sink over several.
type codec interface {
	mpiio.Source
	mpiio.Sink
}

// memCodec is the mpiio.Source and mpiio.Sink over one op's user memory: a
// put encodes each piece the round loop packs straight from user memory
// into the aggregator's message, and a get decodes each reply piece straight
// into user memory (DESIGN.md §9). A position is a byte of the op's request
// in external form, so element e's bytes are [e*esz, (e+1)*esz), and the
// memory runs list where the elements live in linear order.
//
// A round window need not fall on an element boundary, so a piece may begin
// or end inside an element. A write encodes that element whole and copies
// the bytes the piece covers. A read keeps the bytes of such an element in
// part until they are all there (they come from two replies, possibly of two
// aggregators) and then decodes it.
//
// The dataset owns one codec per op of a completion (set up per completion,
// no allocation), and the op's memory stays put until the completion
// returns, failover replays included.
type memCodec struct {
	t     nctype.Type
	esz   int64 // a power of two: positions split by shift and mask
	shift uint
	data  any
	runs  []mpitype.Segment // element runs of data, in linear order

	// Cursor: runs[i] holds linear elements [base, base+runs[i].Len). Pieces
	// mostly come in ascending order, so seeking walks a little forward.
	i    int
	base int64

	whole [1]mpitype.Segment // runs of contiguous memory
	one   [1]mpitype.Segment // a run cut by a piece's ends
	tmp   [8]byte            // one encoded element
	part  []partElem         // reads: elements with some bytes still to come
	err   error              // the first conversion error (a write's: cdf.ErrRange)
}

// partElem is an element a read has received some of the bytes of.
type partElem struct {
	e    int64
	have uint8 // bit k: byte k is in b
	b    [8]byte
}

// reset points the codec at op's memory.
func (c *memCodec) reset(op *pendingOp) {
	esz := int64(op.v.Type.Size())
	*c = memCodec{t: op.v.Type, esz: esz, shift: uint(bits.TrailingZeros64(uint64(esz))),
		data: op.data, runs: op.memsegs, part: c.part[:0]}
	if c.runs == nil {
		c.whole[0] = mpitype.Segment{Len: op.req.NElems}
		c.runs = c.whole[:]
	}
}

// release drops the references to user memory and returns the first
// conversion error.
func (c *memCodec) release() error {
	err := c.err
	*c = memCodec{part: c.part[:0]}
	return err
}

func (c *memCodec) note(err error) {
	if c.err == nil {
		c.err = err
	}
}

// span returns memory runs holding linear elements [e, e+n) and how many
// elements they hold: as many whole runs as fit in place, or one cut run.
func (c *memCodec) span(e, n int64) ([]mpitype.Segment, int64) {
	if e < c.base {
		c.i, c.base = 0, 0
	}
	for e >= c.base+c.runs[c.i].Len {
		c.base += c.runs[c.i].Len
		c.i++
	}
	r := c.runs[c.i]
	if off := e - c.base; off > 0 || r.Len > n {
		c.one[0] = mpitype.Segment{Off: r.Off + off, Len: min(r.Len-off, n)}
		return c.one[:], c.one[0].Len
	}
	j, k := c.i, int64(0)
	for j < len(c.runs) && k+c.runs[j].Len <= n {
		k += c.runs[j].Len
		j++
	}
	return c.runs[c.i:j], k
}

// Fill encodes the external bytes [pos, pos+len(dst)) into dst.
func (c *memCodec) Fill(dst []byte, pos int64) {
	if k := pos & (c.esz - 1); k != 0 {
		n := copy(dst, c.encode(c.tmp[:0], pos>>c.shift, 1)[k:])
		dst, pos = dst[n:], pos+int64(n)
	}
	e, n := pos>>c.shift, int64(len(dst))>>c.shift
	c.encode(dst[:0], e, n)
	if tail := dst[n<<c.shift:]; len(tail) > 0 {
		copy(tail, c.encode(c.tmp[:0], e+n, 1))
	}
}

// encode appends elements [e, e+n) to dst, in place when dst has the room.
func (c *memCodec) encode(dst []byte, e, n int64) []byte {
	for n > 0 {
		runs, k := c.span(e, n)
		var err error
		dst, err = cdf.EncodeSegs(dst, c.t, c.data, runs)
		c.note(err)
		e, n = e+k, n-k
	}
	return dst
}

// Drain decodes the external bytes src, which sit at pos.
func (c *memCodec) Drain(pos int64, src []byte) {
	if k := pos & (c.esz - 1); k != 0 {
		n := min(int64(len(src)), c.esz-k)
		c.partial(pos>>c.shift, k, src[:n])
		src, pos = src[n:], pos+n
	}
	e, n := pos>>c.shift, int64(len(src))>>c.shift
	c.decode(src, e, n)
	if tail := src[n<<c.shift:]; len(tail) > 0 {
		c.partial(e+n, 0, tail)
	}
}

// decode decodes elements [e, e+n) from src.
func (c *memCodec) decode(src []byte, e, n int64) {
	for n > 0 {
		runs, k := c.span(e, n)
		c.note(cdf.DecodeSegs(src[:k<<c.shift], c.t, runs, c.data))
		src, e, n = src[k<<c.shift:], e+k, n-k
	}
}

// partial takes b as bytes [k, k+len(b)) of element e and decodes the
// element once all its bytes are in. A failover replay may hand over bytes
// again; they are the same bytes.
func (c *memCodec) partial(e, k int64, b []byte) {
	i := 0
	for i < len(c.part) && c.part[i].e != e {
		i++
	}
	if i == len(c.part) {
		c.part = append(c.part, partElem{e: e})
	}
	p := &c.part[i]
	copy(p.b[k:], b)
	p.have |= uint8(1<<len(b)-1) << k
	if p.have == uint8(1<<c.esz-1) {
		c.decode(p.b[:c.esz], e, 1)
		c.part[i] = c.part[len(c.part)-1]
		c.part = c.part[:len(c.part)-1]
	}
}

// merged is the source and sink of a direction that moves several ops —
// list I/O across ops: the fused request is the ops' file extents in file
// order (fuse's pieces), and each piece's bytes are converted by its own
// op's codec. A position lies in the last piece whose fused start is at or
// before it; a stretch MPI-IO hands over may run on into the next pieces,
// of the same op or another, and is split at piece ends.
type merged struct {
	pieces []piece
	codecs []memCodec
}

// find returns the index of the piece holding fused position pos.
func (m *merged) find(pos int64) int {
	k, found := slices.BinarySearchFunc(m.pieces, pos, func(p piece, pos int64) int { return cmp.Compare(p.at, pos) })
	if !found {
		k--
	}
	return k
}

// Fill encodes the fused bytes [pos, pos+len(dst)) into dst.
func (m *merged) Fill(dst []byte, pos int64) {
	for k := m.find(pos); len(dst) > 0; k++ {
		p := &m.pieces[k]
		off := pos - p.at
		n := min(int64(len(dst)), p.seg.Len-off)
		m.codecs[p.op].Fill(dst[:n], p.pos+off)
		dst, pos = dst[n:], pos+n
	}
}

// Drain decodes the fused bytes src, which sit at pos.
func (m *merged) Drain(pos int64, src []byte) {
	for k := m.find(pos); len(src) > 0; k++ {
		p := &m.pieces[k]
		off := pos - p.at
		n := min(int64(len(src)), p.seg.Len-off)
		m.codecs[p.op].Drain(p.pos+off, src[:n])
		src, pos = src[n:], pos+n
	}
}
