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
// AttrList goes on reading as it did, and a list may be the bytes of the
// buffer Decode read it from, or another header's.
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

// width returns the byte width of the list's NON_NEG fields: 8 when the
// first word is zero, else 4.
func (l AttrList) width() int {
	if len(l.xdr) > 0 && binary.BigEndian.Uint32(l.xdr) == 0 {
		return 8
	}
	return 4
}

// parse reads the attribute that starts at off, whose list's NON_NEG fields
// are nn bytes wide. A list is checked when it is made (Decode, and the
// define methods), so parsing checks nothing.
func (l AttrList) parse(off, nn int) attrAt {
	var a attrAt
	n := l.word(off, nn)
	a.name = l.xdr[off+nn : off+nn+n]
	off += nn + int(round4(int64(n)))
	a.typ = nctype.Type(binary.BigEndian.Uint32(l.xdr[off:]))
	a.nelems = int64(l.word(off+4, nn))
	off += 4 + nn
	size := int(a.nelems) * a.typ.Size()
	a.values = l.xdr[off : off+size : off+size]
	a.next = off + int(round4(int64(size)))
	return a
}

// word reads the nn-byte NON_NEG field at off.
func (l AttrList) word(off, nn int) int {
	if nn == 8 {
		return int(binary.BigEndian.Uint64(l.xdr[off:]))
	}
	return int(binary.BigEndian.Uint32(l.xdr[off:]))
}

// next returns the name of the attribute at off and where the attribute
// after it starts, reading only the type and the element count on the way.
func (l AttrList) next(off, nn int) (name []byte, next int) {
	n := l.word(off, nn)
	name = l.xdr[off+nn : off+nn+n]
	off += nn + int(round4(int64(n)))
	size := l.word(off+4, nn) * nctype.Type(binary.BigEndian.Uint32(l.xdr[off:])).Size()
	return name, off + 4 + nn + int(round4(int64(size)))
}

// lookup returns the attribute called name, where its bytes start, and its
// position, with ok set. When no attribute has the name it returns the end
// of the list and, as i, the number of attributes: the walk that missed
// counted them.
func (l AttrList) lookup(name string) (a attrAt, at, i int, ok bool) {
	nn := l.width()
	for off := 0; off < len(l.xdr); i++ {
		got, next := l.next(off, nn)
		if string(got) == name {
			return l.parse(off, nn), off, i, true
		}
		off = next
	}
	return attrAt{}, len(l.xdr), i, false
}

// Len returns the number of attributes.
func (l AttrList) Len() int {
	n, nn := 0, l.width()
	for off := 0; off < len(l.xdr); n++ {
		_, off = l.next(off, nn)
	}
	return n
}

// Walk calls f with each attribute, in definition order, in one pass over
// the list.
func (l AttrList) Walk(f func(Attr)) {
	nn := l.width()
	for off := 0; off < len(l.xdr); {
		a := l.parse(off, nn)
		f(Attr{Name: string(a.name), Type: a.typ, Nelems: a.nelems, Values: a.values})
		off = a.next
	}
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
// any other change makes a new list. So no change writes over a byte l
// holds: a decoded list, the buffer's bytes, is never h's latest cut, and a
// list h shares with a clone is grown only past the clone's copy's end. A
// new list longer than half a slab may take a slab of twice its length, so
// the appends after it grow in place and a long list is not copied whole on
// every append. An error from values leaves l as it was.
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
		need := len(l.xdr) - (end - at) + size
		w.buf = append(h.lists.carve(need, max(attrSlabLen, 2*need))[:0], l.xdr[:at]...)
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

// attrs reads an attribute list and returns it as the buffer holds it, cut
// to its own capacity. It checks what parse relies on — names of 1 to
// MaxNameLen bytes, known types, values within the buffer, null padding —
// and what the define methods hold every list to: valid and unique names,
// types the version has. Validate does not walk lists again. The list aliases
// the buffer, which the processes of an open may share: no header writes
// over bytes a list holds (setAttr), so reading it in place is safe.
func (r *headerReader) attrs() (AttrList, error) {
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
	return AttrList{xdr: r.buf[start:r.pos:r.pos]}, nil
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
