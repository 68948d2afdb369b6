package cdf

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"pnetcdf/internal/nctype"
)

// fuzzSeedHeader builds a representative header image for the fuzz corpus:
// dims (incl. unlimited), global and per-var attributes of several types,
// fixed and record variables.
func fuzzSeedHeader(version int) []byte {
	h := &Header{Version: version}
	h.Dims = []Dim{{Name: "time", Len: 0}, {Name: "x", Len: 7}, {Name: "y", Len: 3}}
	h.GAttrs = listOf(version,
		mkAttr("title", nctype.Char, []byte("fuzz seed")),
		mkAttr("level", nctype.Int, []byte{0, 0, 0, 9}),
	)
	h.Vars = []Var{
		{Name: "grid", Type: nctype.Double, DimIDs: []int{1, 2},
			Attrs: listOf(version, mkAttr("units", nctype.Char, []byte("m")))},
		{Name: "temp", Type: nctype.Float, DimIDs: []int{0, 1}},
		{Name: "flag", Type: nctype.Byte, DimIDs: []int{}},
	}
	if err := h.ComputeLayout(1); err != nil {
		panic(err)
	}
	h.NumRecs = 4
	return h.Encode()
}

// bigSeedHeader is a header of 300 variables, each with a units attribute,
// plus a global attribute of attrLen bytes.
func bigSeedHeader(version, attrLen int) []byte {
	h := &Header{Version: version}
	h.Dims = []Dim{{Name: "time", Len: 0}, {Name: "x", Len: 5}}
	h.GAttrs = listOf(version, mkAttr("history", nctype.Char, bytes.Repeat([]byte("h"), attrLen)))
	for i := 0; i < 300; i++ {
		dims := []int{1}
		if i%2 == 0 {
			dims = []int{0, 1} // a record variable
		}
		h.Vars = append(h.Vars, Var{Name: fmt.Sprintf("var_%0*d", 1+i%7, i), Type: nctype.Short, DimIDs: dims,
			Attrs: listOf(version, mkAttr("units", nctype.Char, []byte("m s-1")[:1+i%5]))})
	}
	if err := h.ComputeLayout(1); err != nil {
		panic(err)
	}
	return h.Encode()
}

func mkAttr(name string, t nctype.Type, vals []byte) Attr {
	return Attr{Name: name, Type: t, Nelems: int64(len(vals)) / int64(t.Size()), Values: vals}
}

// listOf encodes attrs as an attribute list of a header of the given
// version, as a file holds it: duplicate names and all, which the define
// methods refuse.
func listOf(version int, attrs ...Attr) AttrList {
	if len(attrs) == 0 {
		return AttrList{}
	}
	w := headerWriter{version: version}
	for _, a := range attrs {
		w.name(a.Name)
		w.uint32(uint32(a.Type))
		w.nonNeg(a.Nelems)
		w.bytes(a.Values)
		w.pad4()
	}
	return AttrList{xdr: w.buf}
}

// attrsOf parses every attribute of l.
func attrsOf(l AttrList) []Attr {
	out := []Attr{}
	l.Walk(func(a Attr) { out = append(out, a) })
	return out
}

// hostileCountImages builds tiny buffers that declare the largest counts
// Decode admits — MaxDims dimensions, MaxAttrs attributes, MaxVars
// variables, a MaxDims-dimensional variable, an attribute as long as the
// buffer, MaxVars variables the first of which declares MaxAttrs
// attributes, names longer than what remains — with little or nothing
// behind them. Decode sizes its lists and slabs from counts, so each must be
// bounded by the bytes actually present.
func hostileCountImages() [][]byte {
	var out [][]byte
	for _, version := range []int{1, 2, 5} {
		w := func() *headerWriter {
			w := &headerWriter{version: version}
			w.buf = append(w.buf, 'C', 'D', 'F', byte(version))
			w.nonNeg(0)
			return w
		}
		dims := w()
		dims.tagList(nctype.TagDimension, nctype.MaxDims)
		out = append(out, dims.buf)

		gatts := w()
		gatts.tagList(nctype.TagDimension, 0)
		gatts.tagList(nctype.TagAttribute, nctype.MaxAttrs)
		out = append(out, gatts.buf)

		long := w()
		long.tagList(nctype.TagDimension, 0)
		long.tagList(nctype.TagAttribute, 1)
		long.name("a")
		long.uint32(uint32(nctype.Byte))
		long.nonNeg(int64(len(long.buf)) + nonNegSize(version)) // nelems = the buffer's own length
		out = append(out, long.buf)

		vars := w()
		vars.tagList(nctype.TagDimension, 0)
		vars.tagList(nctype.TagAttribute, 0)
		vars.tagList(nctype.TagVariable, nctype.MaxVars)
		out = append(out, vars.buf)

		wide := w()
		wide.tagList(nctype.TagDimension, 1)
		wide.name("x")
		wide.nonNeg(1)
		wide.tagList(nctype.TagAttribute, 0)
		wide.tagList(nctype.TagVariable, nctype.MaxVars)
		wide.name("v")
		wide.nonNeg(nctype.MaxDims)
		out = append(out, wide.buf)
		// ... and the same with a sign-extended count, where the format has room.
		huge := append([]byte(nil), wide.buf...)
		binary.BigEndian.PutUint32(huge[len(huge)-4:], 0xFFFFFFFF)
		out = append(out, huge)

		// MaxVars variables, the first of which declares MaxAttrs attributes
		// and holds one: the attribute-list slab is cut to what the bytes
		// could hold, not to either count.
		vattrs := w()
		vattrs.tagList(nctype.TagDimension, 0)
		vattrs.tagList(nctype.TagAttribute, 0)
		vattrs.tagList(nctype.TagVariable, nctype.MaxVars)
		vattrs.name("v")
		vattrs.nonNeg(0)
		vattrs.tagList(nctype.TagAttribute, nctype.MaxAttrs)
		vattrs.name("a")
		vattrs.uint32(uint32(nctype.Byte))
		vattrs.nonNeg(1)
		vattrs.bytes([]byte{1, 0, 0, 0})
		out = append(out, vattrs.buf)

		// Names that claim more bytes than remain: a dimension's, then a
		// variable's after a name that fits.
		dname := w()
		dname.tagList(nctype.TagDimension, 1)
		dname.nonNeg(nctype.MaxNameLen)
		dname.bytes([]byte("dim"))
		out = append(out, dname.buf)

		vname := w()
		vname.tagList(nctype.TagDimension, 1)
		vname.name("x")
		vname.nonNeg(1)
		vname.tagList(nctype.TagAttribute, 0)
		vname.tagList(nctype.TagVariable, 2)
		vname.nonNeg(nctype.MaxNameLen)
		vname.bytes([]byte("var"))
		out = append(out, vname.buf)
	}
	return out
}

// TestDecodeHostileCountsBoundedAllocation: what Decode allocates for a
// count is bounded by the bytes that could back it, not by the count.
// TotalAlloc is process-wide, so one delta also counts whatever another
// goroutine (the race detector's, a parallel test's) allocated meanwhile;
// Decode is deterministic, so the smallest of a few deltas is its own.
func TestDecodeHostileCountsBoundedAllocation(t *testing.T) {
	for i, img := range hostileCountImages() {
		got := uint64(math.MaxUint64)
		for try := 0; try < 5; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Decode(img)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("image %d: Decode accepted it", i)
			}
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		// A Var is 88 bytes in memory against 28 on disk, the worst ratio of
		// any list element; 16x the buffer plus a constant covers every list.
		if limit := uint64(16*len(img) + 4096); got > limit {
			t.Errorf("image %d (%d bytes): Decode allocated %d bytes, want <= %d", i, len(img), got, limit)
		}
	}
}

// FuzzDecode: the header decoder must never panic or over-allocate on
// hostile input — only return a header or an error. Seeds cover the three
// format versions plus images truncated at every crash point a torn header
// commit can produce (mid-magic, mid-numrecs, mid-body), and bit-flipped
// counts that historically tripped make() with negative sizes.
func FuzzDecode(f *testing.F) {
	for _, v := range []int{1, 2, 5} {
		img := fuzzSeedHeader(v)
		f.Add(img)
		// Crash-point truncations: a commit that died after writing only a
		// prefix of the header region.
		for _, cut := range []int{1, 3, 5, len(img) / 2, len(img) - 1} {
			if cut < len(img) {
				f.Add(append([]byte(nil), img[:cut]...)) //nolint:makezero
			}
		}
		// Torn magic: commit step 2 zeroes the magic before the body lands.
		torn := append([]byte(nil), img...)
		copy(torn, []byte{0, 0, 0, 0})
		f.Add(torn)
		// Hostile counts: sign-bit NumRecs (CDF-5) / huge NumRecs (CDF-1/2).
		evil := append([]byte(nil), img...)
		for i := 4; i < 12 && i < len(evil); i++ {
			evil[i] = 0xFF
		}
		f.Add(evil)
	}
	for _, img := range hostileCountImages() {
		f.Add(img)
	}
	// Headers longer than Digest's buffer, one with an attribute that is
	// longer on its own.
	for _, v := range []int{1, 2, 5} {
		f.Add(bigSeedHeader(v, 100))
		f.Add(bigSeedHeader(v, 3*digestChunk+1))
	}
	// Headers longer than ReadHeader's first step, with begins that bound the
	// next one usefully, uselessly and wrongly, and variables that predict
	// the header's end well (4096 of them), too far, or not at all.
	for _, tc := range probeCases(f) {
		f.Add(tc.img)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := Decode(data)
		// ReadHeader on a file holding exactly these bytes reaches Decode's
		// verdict, whatever they claim about where the data begins, without
		// reading a byte twice.
		file := &countingFile{size: int64(len(data)), head: data}
		rh, blob, recovered, rerr := ReadHeader(file.size, file.read)
		switch {
		case recovered:
		case (err == nil) != (rerr == nil):
			t.Fatalf("Decode: %v, ReadHeader: %v", err, rerr)
		case err == nil && (!sameHeader(rh, h) || !bytes.Equal(blob, data[:len(blob)]) || file.bytes != file.reach):
			t.Fatalf("ReadHeader: another header, an image of %d bytes that is not the file's prefix, or %d bytes read to reach byte %d",
				len(blob), file.bytes, file.reach)
		}
		// In a file much larger than the bytes, the rest zeros, the probe
		// extends past them as far as the decode asks; a header it finds
		// cost no byte twice, and a header the bytes hold is found again.
		large := &countingFile{size: int64(len(data)) + 8<<20, head: data}
		lh, _, _, lerr := ReadHeader(large.size, large.read)
		if lerr == nil && large.bytes != large.reach || err == nil && (lerr != nil || !sameHeader(lh, h)) {
			t.Fatalf("ReadHeader in a file of %d bytes: %v, %d bytes read to reach byte %d; Decode: %v",
				large.size, lerr, large.bytes, large.reach, err)
		}
		if err != nil {
			return
		}
		// A successful decode must survive its own invariants: re-encode
		// and layout computation must not panic either.
		if h.Validate() != nil {
			t.Fatalf("Decode returned header failing its own Validate")
		}
		// Digest streams the bytes Encode returns.
		if h.Digest() != sha256.Sum256(h.Encode()) {
			t.Fatalf("Digest is not the SHA-256 of Encode's %d bytes", len(h.Encode()))
		}
		_ = h.FileSize()
		_ = h.RecSize()
		// The header reads data in place, and no define change writes over
		// it: a new attribute and a deleted one leave the input as it was.
		input := slices.Clone(data)
		if _, err := h.putAttr(GlobalID, "fuzz_added", nctype.Char, "x", true); err != nil && !errors.Is(err, nctype.ErrMaxAttrs) {
			t.Fatalf("define-mode PutAttr on a decoded header: %v", err)
		}
		for varid := GlobalID; varid < min(len(h.Vars), 4); varid++ {
			if l, _ := h.attrList(varid); l.Len() > 0 {
				if err := h.delAttr(varid, firstAttr(*l).Name); err != nil {
					t.Fatalf("DelAttr on a decoded header: %v", err)
				}
			}
		}
		if !bytes.Equal(data, input) {
			t.Fatalf("a define change to the decoded header wrote into its input")
		}
	})
}
