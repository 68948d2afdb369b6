package cdf

import (
	"encoding/binary"
	"fmt"
	"math"

	"pnetcdf/internal/nctype"
)

type headerReader struct {
	buf     []byte
	pos     int
	version int

	// minBegin is the smallest begin among the variables read so far
	// (math.MaxInt64 before the first). Data starts no earlier than the
	// header ends, so it bounds where a valid header ends even when the
	// buffer did not reach that far; ReadHeader trims its next probe by it.
	minBegin int64

	// nvars is the variable count the header declares, varsAt where its
	// first variable starts, and done variables were read in full, ending at
	// varsEnd: what a truncated decode knows about the header's length (see
	// predictEnd).
	nvars, varsAt, varsEnd int64
	done                   int64

	// names is where names are cut from; lists and values are cut from the
	// slabs of the header being read.
	names stringSlab
}

// errTruncated reports that the buffer ended before the header did: the one
// decode failure that more bytes of the same file can cure. It wraps
// nctype.ErrNotNC, which is what a truncated file is.
var errTruncated = fmt.Errorf("%w: truncated header", nctype.ErrNotNC)

func (r *headerReader) need(n int) error {
	if r.pos+n > len(r.buf) {
		return errTruncated
	}
	return nil
}

// atMost bounds a decoded element count, or a slab's ceiling, by what the
// unread bytes could encode at minSize bytes an element, so that a hostile
// count cannot size an allocation.
func (r *headerReader) atMost(n, minSize int64) int {
	return int(min(n, int64(len(r.buf)-r.pos)/minSize))
}

func (r *headerReader) uint32() (uint32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v, nil
}

func (r *headerReader) nonNeg() (int64, error) {
	if r.version == 5 {
		if err := r.need(8); err != nil {
			return 0, err
		}
		v := int64(binary.BigEndian.Uint64(r.buf[r.pos:]))
		r.pos += 8
		// A hostile CDF-5 count with the top bit set must be rejected
		// here: downstream it sizes allocations (make([]int, nd)) and
		// loop bounds, where a negative value panics or wraps.
		if v < 0 {
			return 0, fmt.Errorf("%w: negative count", nctype.ErrNotNC)
		}
		return v, nil
	}
	v, err := r.uint32()
	return int64(v), err
}

func (r *headerReader) offset() (int64, error) {
	if r.version == 1 {
		v, err := r.uint32()
		return int64(v), err
	}
	if err := r.need(8); err != nil {
		return 0, err
	}
	v := int64(binary.BigEndian.Uint64(r.buf[r.pos:]))
	r.pos += 8
	return v, nil
}

func (r *headerReader) skipPad() error {
	for r.pos%4 != 0 {
		if err := r.need(1); err != nil {
			return err
		}
		r.pos++
	}
	return nil
}

// name reads a name. When it equals like — the name in the same place of
// the previous list, which is what the attributes of consecutive variables
// mostly carry — that string is shared; any other is cut from the name slab.
func (r *headerReader) name(like string) (string, error) {
	n, err := r.nonNeg()
	if err != nil {
		return "", err
	}
	if n < 0 || n > nctype.MaxNameLen {
		return "", fmt.Errorf("%w: name length %d", nctype.ErrNotNC, n)
	}
	if err := r.need(int(n)); err != nil {
		return "", err
	}
	s, p := like, r.buf[r.pos:r.pos+int(n)]
	if string(p) != like {
		s = r.names.cut(p, r.atMost(nameSlabLen, 1))
	}
	r.pos += int(n)
	return s, r.skipPad()
}

func (r *headerReader) tagList(wantTag uint32) (int64, error) {
	tag, err := r.uint32()
	if err != nil {
		return 0, err
	}
	n, err := r.nonNeg()
	if err != nil {
		return 0, err
	}
	switch {
	case tag == nctype.TagAbsent && n == 0:
		return 0, nil
	case tag == wantTag:
		return n, nil
	}
	return 0, fmt.Errorf("%w: bad list tag %#x", nctype.ErrNotNC, tag)
}

// attrs reads an attribute list into h's slabs; prev is the list read
// before it, whose names it may share (see name).
func (r *headerReader) attrs(h *Header, prev []Attr) ([]Attr, error) {
	n, err := r.tagList(nctype.TagAttribute)
	if err != nil {
		return nil, err
	}
	if n > nctype.MaxAttrs {
		return nil, fmt.Errorf("%w: %d attributes", nctype.ErrNotNC, n)
	}
	minSize := 2*nonNegSize(r.version) + 4
	attrs := h.attrs.carve(r.atMost(n, minSize), r.atMost(listSlabLen, minSize))[:0]
	for i := int64(0); i < n; i++ {
		var a Attr
		like := ""
		if i < int64(len(prev)) {
			like = prev[i].Name
		}
		if a.Name, err = r.name(like); err != nil {
			return nil, err
		}
		t, err := r.uint32()
		if err != nil {
			return nil, err
		}
		a.Type = nctype.Type(t)
		if a.Type.Size() == 0 {
			return nil, fmt.Errorf("%w: attribute type %d", nctype.ErrNotNC, t)
		}
		if a.Nelems, err = r.nonNeg(); err != nil {
			return nil, err
		}
		// Bound Nelems by the buffer before multiplying so the byte count
		// cannot overflow, and the copy below cannot over-allocate.
		if a.Nelems > int64(len(r.buf)) {
			return nil, errTruncated
		}
		nbytes := a.Nelems * int64(a.Type.Size())
		if nbytes < 0 || int64(r.pos)+nbytes > int64(len(r.buf)) {
			return nil, errTruncated
		}
		a.Values = h.vals.carve(int(nbytes), r.atMost(valueSlabLen, 1))
		copy(a.Values, r.buf[r.pos:])
		r.pos += int(nbytes)
		if err := r.skipPad(); err != nil {
			return nil, err
		}
		attrs = append(attrs, a)
	}
	return attrs, nil
}

// predictEnd is where a header that decode found truncated inside its
// variable list probably ends: the bytes its complete variables took,
// extrapolated to the declared count, with an eighth of the extrapolation to
// spare — names and attributes vary in length, and a prediction just short
// costs a whole request where one a little long costs bytes, which the
// smallest begin usually trims. It is 0 when no variable was read in full.
func (r *headerReader) predictEnd() int64 {
	if r.done == 0 {
		return 0
	}
	rest := (r.nvars - r.done) * (r.varsEnd - r.varsAt) / r.done
	return r.varsEnd + rest + rest/8
}

// Decode parses an on-disk header image. The buffer must contain at least
// the complete header; trailing bytes (data) are ignored.
func Decode(buf []byte) (*Header, error) {
	var r headerReader
	return r.decode(buf)
}

// decode is Decode on a reader the caller keeps: afterwards r.pos is where
// the header ended in buf (on success) and r.minBegin what the variables
// read before a failure said about where it must.
func (r *headerReader) decode(buf []byte) (*Header, error) {
	if len(buf) < 4 || buf[0] != 'C' || buf[1] != 'D' || buf[2] != 'F' {
		return nil, nctype.ErrNotNC
	}
	version := int(buf[3])
	if version != 1 && version != 2 && version != 5 {
		return nil, fmt.Errorf("%w: CDF-%d", nctype.ErrVersion, version)
	}
	*r = headerReader{buf: buf, pos: 4, version: version, minBegin: math.MaxInt64}
	h := &Header{Version: version}
	var err error
	if h.NumRecs, err = r.nonNeg(); err != nil {
		return nil, err
	}
	// dim_list
	ndims, err := r.tagList(nctype.TagDimension)
	if err != nil {
		return nil, err
	}
	if ndims > nctype.MaxDims {
		return nil, fmt.Errorf("%w: %d dimensions", nctype.ErrNotNC, ndims)
	}
	nn := nonNegSize(version)
	h.Dims = make([]Dim, 0, r.atMost(ndims, 2*nn))
	for i := int64(0); i < ndims; i++ {
		var d Dim
		if d.Name, err = r.name(""); err != nil {
			return nil, err
		}
		if d.Len, err = r.nonNeg(); err != nil {
			return nil, err
		}
		h.Dims = append(h.Dims, d)
	}
	// gatt_list
	if h.GAttrs, err = r.attrs(h, nil); err != nil {
		return nil, err
	}
	// var_list
	nvars, err := r.tagList(nctype.TagVariable)
	if err != nil {
		return nil, err
	}
	if nvars > nctype.MaxVars {
		return nil, fmt.Errorf("%w: %d variables", nctype.ErrNotNC, nvars)
	}
	h.Vars = make([]Var, 0, r.atMost(nvars, 4*nn+8+offsetSize(version)))
	r.nvars, r.varsAt = nvars, int64(r.pos)
	var prev []Attr
	for i := int64(0); i < nvars; i++ {
		var v Var
		if v.Name, err = r.name(""); err != nil {
			return nil, err
		}
		nd, err := r.nonNeg()
		if err != nil {
			return nil, err
		}
		if nd > nctype.MaxDims {
			return nil, nctype.ErrMaxDims
		}
		if err := r.need(int(nd * nn)); err != nil {
			return nil, err
		}
		v.DimIDs = h.ids.carve(int(nd), r.atMost(listSlabLen, nn))
		for j := range v.DimIDs {
			id, err := r.nonNeg()
			if err != nil {
				return nil, err
			}
			if id < 0 || id >= int64(len(h.Dims)) {
				return nil, fmt.Errorf("%w: dimid %d", nctype.ErrNotNC, id)
			}
			v.DimIDs[j] = int(id)
		}
		if v.Attrs, err = r.attrs(h, prev); err != nil {
			return nil, err
		}
		if len(v.Attrs) > 0 {
			prev = v.Attrs
		}
		t, err := r.uint32()
		if err != nil {
			return nil, err
		}
		v.Type = nctype.Type(t)
		if !v.Type.Valid(version) {
			return nil, fmt.Errorf("%w: variable type %d", nctype.ErrNotNC, t)
		}
		if v.VSize, err = r.nonNeg(); err != nil {
			return nil, err
		}
		if v.Begin, err = r.offset(); err != nil {
			return nil, err
		}
		if v.Begin < 0 {
			return nil, fmt.Errorf("%w: variable %q begin %d", nctype.ErrNotNC, v.Name, v.Begin)
		}
		r.minBegin = min(r.minBegin, v.Begin)
		h.Vars = append(h.Vars, v)
		r.done, r.varsEnd = i+1, int64(r.pos)
	}
	h.dimIdx.extend(len(h.Dims), h.dimName)
	h.varIdx.extend(len(h.Vars), h.varName)
	if err := h.Validate(); err != nil {
		return nil, err
	}
	return h, nil
}
