package cdf

import (
	"encoding/binary"
	"fmt"

	"pnetcdf/internal/nctype"
)

// AttrList is an attribute list held in its external form: each attribute's
// name, type, element count and values, padded, exactly as the header's
// attr_list encodes them after its tag and count. Encode and Digest copy it
// as it is and the methods below parse it on demand, so an attribute costs
// what it encodes. The zero value is the empty list.
//
// The list's NON_NEG fields are 8 bytes wide in CDF-5 and 4 otherwise. The
// list does not record which: a name is never empty, so the first word — the
// first name's length — is zero only as the high half of an 8-byte length.
//
// A header changes a list by appending to it in place or by making a new
// one, never by writing over bytes the list already holds, so a copy of an
// AttrList goes on reading as it did.
type AttrList struct {
	xdr []byte
}

// Attr is one attribute of a list: its name, external type, element count,
// and external (big-endian) values, which alias the list.
type Attr struct {
	Name   string
	Type   nctype.Type
	Nelems int64
	Values []byte
}

// attrAt is an attribute parsed in place: its fields alias the list, and
// next is where the attribute after it starts.
type attrAt struct {
	name   []byte
	typ    nctype.Type
	nelems int64
	values []byte
	next   int
}

// parse reads the attribute that starts at off. A list is checked when it
// is made (Decode, and the define methods), so parsing checks nothing.
func (l AttrList) parse(off int) attrAt {
	wide, nn := binary.BigEndian.Uint32(l.xdr) == 0, 4
	if wide {
		nn = 8
	}
	var a attrAt
	n := l.word(off, wide)
	a.name = l.xdr[off+nn : off+nn+n]
	off += nn + int(round4(int64(n)))
	a.typ = nctype.Type(binary.BigEndian.Uint32(l.xdr[off:]))
	a.nelems = int64(l.word(off+4, wide))
	off += 4 + nn
	size := int(a.nelems) * a.typ.Size()
	a.values = l.xdr[off : off+size : off+size]
	a.next = off + int(round4(int64(size)))
	return a
}

// word reads the NON_NEG field at off: 8 bytes when wide, else 4.
func (l AttrList) word(off int, wide bool) int {
	if wide {
		return int(binary.BigEndian.Uint64(l.xdr[off:]))
	}
	return int(binary.BigEndian.Uint32(l.xdr[off:]))
}

// lookup returns the attribute called name, where its bytes start, and its
// position; the position is -1 when no attribute has the name.
func (l AttrList) lookup(name string) (a attrAt, at, i int) {
	for off := 0; off < len(l.xdr); i++ {
		a = l.parse(off)
		if string(a.name) == name {
			return a, off, i
		}
		off = a.next
	}
	return attrAt{}, len(l.xdr), -1
}

// Len returns the number of attributes.
func (l AttrList) Len() int {
	n := 0
	for off := 0; off < len(l.xdr); n++ {
		off = l.parse(off).next
	}
	return n
}

// At returns attribute i, which must be in range.
func (l AttrList) At(i int) Attr {
	off := 0
	for ; i > 0; i-- {
		off = l.parse(off).next
	}
	a := l.parse(off)
	return Attr{Name: string(a.name), Type: a.typ, Nelems: a.nelems, Values: a.values}
}

// Find returns the position of the attribute called name, or -1.
func (l AttrList) Find(name string) int {
	_, _, i := l.lookup(name)
	return i
}

// attrList returns the attribute list of variable varid, or the dataset's
// for GlobalID.
func (h *Header) attrList(varid int) (*AttrList, error) {
	if varid == GlobalID {
		return &h.GAttrs, nil
	}
	if varid < 0 || varid >= len(h.Vars) {
		return nil, nctype.ErrNotVar
	}
	return &h.Vars[varid].Attrs, nil
}

// setAttr writes the attribute name, of n values of type t that values
// appends in external form, over bytes [at, end) of l: one attribute, or
// nothing at the end of the list to append one. An append grows the list in
// place when it was the last thing cut from h's slab and the slab has room,
// so a variable's attributes, defined one after another, lie in one piece;
// any other change makes a new list. An error from values leaves l as it
// was.
func (h *Header) setAttr(l *AttrList, at, end int, name string, t nctype.Type, n int, values func([]byte) ([]byte, error)) error {
	size := int(2*nonNegSize(h.Version) + 4 + round4(int64(len(name))) + round4(int64(n*t.Size())))
	w := headerWriter{version: h.Version}
	grown, ok := []byte(nil), false
	if at == len(l.xdr) {
		grown, ok = h.lists.grow(l.xdr, size)
	}
	if ok {
		w.buf = grown[:at]
	} else {
		w.buf = append(h.lists.carve(len(l.xdr)-(end-at)+size, attrSlabLen)[:0], l.xdr[:at]...)
	}
	w.name(name)
	w.uint32(uint32(t))
	w.nonNeg(int64(n))
	var err error
	if w.buf, err = values(w.buf); err != nil {
		return err
	}
	w.pad4()
	l.xdr = append(w.buf, l.xdr[end:]...)
	return nil
}

// cutAttr removes bytes [at, end) — one attribute — from l, into a new list.
func (h *Header) cutAttr(l *AttrList, at, end int) {
	if at == 0 && end == len(l.xdr) {
		*l = AttrList{}
		return
	}
	buf := h.lists.carve(len(l.xdr)-(end-at), attrSlabLen)
	l.xdr = append(append(buf[:0], l.xdr[:at]...), l.xdr[end:]...)
}

// attrs reads an attribute list and copies it into h's slab. It checks
// what parse relies on — names of 1 to MaxNameLen bytes, known types, values
// within the buffer, null padding — and what the define methods hold every
// list to: valid and unique names, types the version has. Validate does not
// walk lists again. The copy is the list's own: it never aliases the buffer,
// which the processes of an open may share.
func (r *headerReader) attrs(h *Header) (AttrList, error) {
	n, err := r.tagList(nctype.TagAttribute)
	if err != nil {
		return AttrList{}, err
	}
	if n > nctype.MaxAttrs {
		return AttrList{}, fmt.Errorf("%w: %d attributes", nctype.ErrNotNC, n)
	}
	start := r.pos
	r.attrNames.n, r.attrNames.long = 0, nil // short is read only below n
	for i := int64(0); i < n; i++ {
		name, err := r.nameBytes()
		if err != nil {
			return AttrList{}, err
		}
		if err := checkName(name); err != nil {
			return AttrList{}, err
		}
		if r.attrNames.repeats(name) {
			return AttrList{}, fmt.Errorf("%w: attribute %q", nctype.ErrNameInUse, name)
		}
		t, err := r.uint32()
		if err != nil {
			return AttrList{}, err
		}
		if nctype.Type(t).Size() == 0 {
			return AttrList{}, fmt.Errorf("%w: attribute type %d", nctype.ErrNotNC, t)
		}
		if !nctype.Type(t).Valid(r.version) {
			return AttrList{}, fmt.Errorf("%w: attribute %q type %v", nctype.ErrBadType, name, nctype.Type(t))
		}
		nelems, err := r.nonNeg()
		if err != nil {
			return AttrList{}, err
		}
		// Bound nelems by the buffer before multiplying so the byte count
		// cannot overflow.
		if nelems > int64(len(r.buf)) {
			return AttrList{}, errTruncated
		}
		nbytes := nelems * int64(nctype.Type(t).Size())
		if err := r.need(int(nbytes)); err != nil {
			return AttrList{}, err
		}
		r.pos += int(nbytes)
		if err := r.skipPad(); err != nil {
			return AttrList{}, err
		}
	}
	if n == 0 {
		return AttrList{}, nil
	}
	xdr := h.lists.carve(r.pos-start, r.atMost(attrSlabLen, 1))
	copy(xdr, r.buf[start:])
	return AttrList{xdr: xdr}, nil
}

// nameSet finds a name an attribute list repeats: each of the first
// indexMinLen names is compared with those before it, and past them every
// name goes into a map.
type nameSet struct {
	short [indexMinLen][]byte
	n     int
	long  map[string]struct{}
}

// repeats adds name and reports whether the set already held it.
func (s *nameSet) repeats(name []byte) bool {
	if s.n < indexMinLen {
		for _, prev := range s.short[:s.n] {
			if string(prev) == string(name) {
				return true
			}
		}
		s.short[s.n] = name
		s.n++
		return false
	}
	if s.long == nil {
		s.long = make(map[string]struct{})
		for _, prev := range s.short {
			s.long[string(prev)] = struct{}{}
		}
	}
	if _, dup := s.long[string(name)]; dup {
		return true
	}
	s.long[string(name)] = struct{}{}
	return false
}
