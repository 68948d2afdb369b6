package cdf

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"

	"pnetcdf/internal/nctype"
)

// nonNegSize returns the width in bytes of a NON_NEG field for the format
// version: 4 for CDF-1/2, 8 for CDF-5.
func nonNegSize(version int) int64 {
	if version == 5 {
		return 8
	}
	return 4
}

// offsetSize returns the width of a variable Begin offset: 4 for CDF-1,
// 8 for CDF-2 and CDF-5.
func offsetSize(version int) int64 {
	if version == 1 {
		return 4
	}
	return 8
}

// headerWriter appends a header's encoding to buf. With a sink it is
// Digest's: at each boundary, once buf is half full, buf drains into the sink
// and starts over, and an attribute list that would overflow buf goes to the
// sink straight from the header. Every boundary is 4-byte aligned in the
// stream, so pad4's arithmetic on len(buf) stays right.
type headerWriter struct {
	buf     []byte
	version int
	sink    hash.Hash
}

// boundary marks the end of a dimension, attribute or variable.
func (w *headerWriter) boundary() {
	if w.sink != nil && 2*len(w.buf) >= cap(w.buf) {
		_, _ = w.sink.Write(w.buf)
		w.buf = w.buf[:0]
	}
}

func (w *headerWriter) bytes(b []byte) { w.buf = append(w.buf, b...) }

// list writes an attribute list: its tag and count, then its bytes as the
// header holds them.
func (w *headerWriter) list(l AttrList) {
	w.tagList(nctype.TagAttribute, l.Len())
	if w.sink != nil && len(l.xdr) > cap(w.buf)-len(w.buf) {
		_, _ = w.sink.Write(w.buf)
		_, _ = w.sink.Write(l.xdr)
		w.buf = w.buf[:0]
		return
	}
	w.bytes(l.xdr)
}

func (w *headerWriter) pad4() {
	for len(w.buf)%4 != 0 {
		w.buf = append(w.buf, 0)
	}
}

func (w *headerWriter) uint32(v uint32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}

func (w *headerWriter) nonNeg(v int64) {
	if w.version == 5 {
		w.buf = binary.BigEndian.AppendUint64(w.buf, uint64(v))
	} else {
		w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(v))
	}
}

func (w *headerWriter) offset(v int64) {
	if w.version == 1 {
		w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(v))
	} else {
		w.buf = binary.BigEndian.AppendUint64(w.buf, uint64(v))
	}
}

func (w *headerWriter) name(s string) {
	w.nonNeg(int64(len(s)))
	w.buf = append(w.buf, s...)
	w.pad4()
}

func (w *headerWriter) tagList(tag uint32, n int) {
	if n == 0 {
		w.uint32(nctype.TagAbsent)
		w.nonNeg(0)
		return
	}
	w.uint32(tag)
	w.nonNeg(int64(n))
}

// Encode serializes the header to its on-disk byte representation.
// ComputeLayout must have been called (Begin/VSize populated).
func (h *Header) Encode() []byte {
	w := &headerWriter{buf: make([]byte, 0, h.EncodedSize()), version: h.Version}
	h.write(w)
	return w.buf
}

// digestChunk caps Digest's buffer.
const digestChunk = 4 << 10

// Digest returns the SHA-256 of Encode's image without holding the image:
// the encoding streams through a buffer of digestChunk bytes, and attribute
// lists that would overflow it go to the hash straight from the header.
// Processes that must agree on a header compare digests instead of images.
func (h *Header) Digest() [sha256.Size]byte {
	sum := sha256.New()
	w := &headerWriter{buf: make([]byte, 0, min(h.EncodedSize(), digestChunk)), version: h.Version, sink: sum}
	h.write(w)
	_, _ = sum.Write(w.buf)
	var out [sha256.Size]byte
	sum.Sum(out[:0])
	return out
}

func (h *Header) write(w *headerWriter) {
	w.buf = append(w.buf, 'C', 'D', 'F', byte(h.Version))
	w.nonNeg(h.NumRecs)
	// dim_list
	w.tagList(nctype.TagDimension, len(h.Dims))
	for _, d := range h.Dims {
		w.name(d.Name)
		w.nonNeg(d.Len)
		w.boundary()
	}
	// gatt_list
	w.list(h.GAttrs)
	w.boundary()
	// var_list
	w.tagList(nctype.TagVariable, len(h.Vars))
	for i := range h.Vars {
		v := &h.Vars[i]
		w.name(v.Name)
		w.nonNeg(int64(len(v.DimIDs)))
		for _, id := range v.DimIDs {
			w.nonNeg(int64(id))
		}
		w.list(v.Attrs)
		w.uint32(uint32(v.Type))
		w.nonNeg(v.VSize)
		w.offset(v.Begin)
		w.boundary()
	}
}

// NumRecsOffset is the file offset of the numrecs field: it follows the
// 4-byte magic in every format version.
const NumRecsOffset = 4

// EncodeNumRecs returns the on-disk image of the numrecs field alone (4
// bytes, 8 in CDF-5): what a record-growing write has to update, whatever
// the size of the header around it.
func (h *Header) EncodeNumRecs() []byte {
	w := &headerWriter{version: h.Version}
	w.nonNeg(h.NumRecs)
	return w.buf
}

// EncodedSize returns the exact byte length Encode will produce, without
// allocating the encoding. Layout computation needs this to place the first
// variable.
func (h *Header) EncodedSize() int64 { return h.listsAt(nil) }

// listsAt returns the byte length of h's encoding and, when at is not nil,
// calls it with each attribute list and the offset of the list's bytes in
// the encoding — in an image h was decoded from, too, since every field
// before a list has a size its value fixes.
func (h *Header) listsAt(at func(l *AttrList, off int64)) int64 {
	nn := nonNegSize(h.Version)
	size := int64(4) + nn // magic + numrecs
	size += 4 + nn        // dim_list tag+nelems
	for _, d := range h.Dims {
		size += nn + round4(int64(len(d.Name))) + nn
	}
	if at != nil {
		at(&h.GAttrs, size+4+nn)
	}
	size += attrsEncodedSize(h.GAttrs, nn)
	size += 4 + nn // var_list tag+nelems
	for i := range h.Vars {
		v := &h.Vars[i]
		size += nn + round4(int64(len(v.Name)))
		size += nn + int64(len(v.DimIDs))*nn
		if at != nil {
			at(&v.Attrs, size+4+nn)
		}
		size += attrsEncodedSize(v.Attrs, nn)
		size += 4 + nn + offsetSize(h.Version)
	}
	return size
}

func attrsEncodedSize(l AttrList, nn int64) int64 { return 4 + nn + int64(len(l.xdr)) }
