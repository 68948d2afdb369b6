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

	// names is where names are cut from; dimension-ID lists are cut from
	// the slab of the header being read.
	names stringSlab
	// attrNames holds the names of the attribute list being read.
	attrNames nameSet
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

// skipPad passes the padding to the next 4-byte boundary, which must be
// null bytes, as netCDF-C and PnetCDF require (NC_ENULLPAD).
func (r *headerReader) skipPad() error {
	for r.pos%4 != 0 {
		if err := r.need(1); err != nil {
			return err
		}
		if r.buf[r.pos] != 0 {
			return fmt.Errorf("%w: header padding is not null", nctype.ErrNotNC)
		}
		r.pos++
	}
	return nil
}

// nameBytes reads a name in place.
func (r *headerReader) nameBytes() ([]byte, error) {
	n, err := r.nonNeg()
	if err != nil {
		return nil, err
	}
	if n > nctype.MaxNameLen {
		return nil, fmt.Errorf("%w: name length %d", nctype.ErrNotNC, n)
	}
	if err := r.need(int(n)); err != nil {
		return nil, err
	}
	p := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return p, r.skipPad()
}

// name reads a name, cut from the name slab.
func (r *headerReader) name() (string, error) {
	p, err := r.nameBytes()
	if err != nil {
		return "", err
	}
	return r.names.cut(p, r.atMost(nameSlabLen, 1)), nil
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
// the complete header; trailing bytes (data) are ignored. The header keeps
// reading buf — its attribute lists are buf's bytes — so the caller must not
// write to the bytes of the header in buf while the header lives; past its
// end it may.
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
		if d.Name, err = r.name(); err != nil {
			return nil, err
		}
		if d.Len, err = r.nonNeg(); err != nil {
			return nil, err
		}
		h.Dims = append(h.Dims, d)
	}
	// gatt_list
	if h.GAttrs, err = r.attrs(); err != nil {
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
	for i := int64(0); i < nvars; i++ {
		var v Var
		if v.Name, err = r.name(); err != nil {
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
		if v.Attrs, err = r.attrs(); err != nil {
			return nil, err
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
