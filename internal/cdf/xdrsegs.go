package cdf

import (
	"errors"
	"fmt"
	"slices"

	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/nctype"
)

// Fused run-length pack/unpack over a flattened typemap. The flexible and
// imap APIs describe the user's memory as element segments (runs of
// contiguous elements); the seed path materialized an intermediate linear
// slice (gather, then encode). These codecs walk the runs directly — one
// conversion pass per contiguous run, no intermediate allocation or copy —
// which is what makes the strided subarray pack wall-clock competitive with
// the contiguous one.

// EncodeSegs appends the external (big-endian) representation, as type t, of
// the elements segs selects from src. Segment offsets and lengths are in
// elements of src. Out-of-range values yield ErrRange but conversion
// continues, matching EncodeSlice.
func EncodeSegs(dst []byte, t nctype.Type, src any, segs []mpitype.Segment) ([]byte, error) {
	if t == nctype.Char {
		switch s := src.(type) {
		case []byte:
			return gatherSegs(dst, s, segs)
		case string:
			return gatherSegs(dst, s, segs)
		}
		return dst, fmt.Errorf("%w: memory type %T with external char", nctype.ErrTypeMismatch, src)
	}
	// Identity pairs (memory type == external type) take the no-check bswap
	// copy in xdrfast.go; everything else goes through the converting
	// fallback.
	switch s := src.(type) {
	case []int8:
		if t == nctype.Byte {
			return encSegs8(dst, s, segs)
		}
		return encodeSegsNum(dst, t, s, segs)
	case []int16:
		if t == nctype.Short {
			return encSegs16(dst, s, segs)
		}
		return encodeSegsNum(dst, t, s, segs)
	case []int32:
		if t == nctype.Int {
			return encSegs32(dst, s, segs)
		}
		return encodeSegsNum(dst, t, s, segs)
	case []int64:
		if t == nctype.Int64 {
			return encSegs64(dst, s, segs)
		}
		return encodeSegsNum(dst, t, s, segs)
	case []uint8:
		if t == nctype.UByte {
			return encSegs8(dst, s, segs)
		}
		return encodeSegsNum(dst, t, s, segs)
	case []uint16:
		if t == nctype.UShort {
			return encSegs16(dst, s, segs)
		}
		return encodeSegsNum(dst, t, s, segs)
	case []uint32:
		if t == nctype.UInt {
			return encSegs32(dst, s, segs)
		}
		return encodeSegsNum(dst, t, s, segs)
	case []uint64:
		if t == nctype.UInt64 {
			return encSegs64(dst, s, segs)
		}
		return encodeSegsNum(dst, t, s, segs)
	case []float32:
		if t == nctype.Float {
			return encSegsF32(dst, s, segs)
		}
		return encodeSegsNum(dst, t, s, segs)
	case []float64:
		if t == nctype.Double {
			return encSegsF64(dst, s, segs)
		}
		return encodeSegsNum(dst, t, s, segs)
	}
	return dst, fmt.Errorf("%w: unsupported memory type %T", nctype.ErrTypeMismatch, src)
}

// CheckSegs reports the error EncodeSegs(dst, t, mem, segs) — or, for a
// read, DecodeSegs(src, t, segs, mem) — would return other than ErrRange: a
// memory type t cannot take, or a segment outside mem. Decode takes fewer
// types than encode (a string encodes to Char but cannot be decoded into).
// Nothing is converted: a caller that converts later, piece by piece, can
// then meet only ErrRange.
func CheckSegs(t nctype.Type, mem any, segs []mpitype.Segment, read bool) error {
	var err error
	if read {
		err = DecodeSegs(nil, t, nil, mem)
	} else {
		_, err = EncodeSegs(nil, t, mem, nil)
	}
	if err != nil {
		return err
	}
	n := int64(SliceLen(mem))
	for _, s := range segs {
		if s.Off < 0 || s.Len < 0 || s.Off+s.Len > n {
			return fmt.Errorf("mpitype: element segment %+v outside buffer of %d", s, n)
		}
	}
	return nil
}

func gatherSegs[S ~[]byte | ~string](dst []byte, src S, segs []mpitype.Segment) ([]byte, error) {
	for _, g := range segs {
		if g.Off < 0 || g.Off+g.Len > int64(len(src)) {
			return dst, fmt.Errorf("mpitype: element segment %+v outside buffer of %d", g, len(src))
		}
		dst = append(dst, src[g.Off:g.Off+g.Len]...)
	}
	return dst, nil
}

func encodeSegsNum[S number](dst []byte, t nctype.Type, src []S, segs []mpitype.Segment) ([]byte, error) {
	esz := t.Size()
	if esz == 0 {
		return dst, fmt.Errorf("%w: %v", nctype.ErrBadType, t)
	}
	var total int64
	for _, s := range segs {
		if s.Off < 0 || s.Len < 0 || s.Off+s.Len > int64(len(src)) {
			return dst, fmt.Errorf("mpitype: element segment %+v outside buffer of %d", s, len(src))
		}
		total += s.Len
	}
	// One growth step for the whole request; the per-run encodes then append
	// within capacity.
	dst = slices.Grow(dst, int(total)*esz)
	var firstErr error
	for _, s := range segs {
		var err error
		dst, err = encodeNum(dst, t, src[s.Off:s.Off+s.Len])
		if err != nil {
			if !errors.Is(err, ErrRange) {
				return dst, err
			}
			firstErr = err
		}
	}
	return dst, firstErr
}

// DecodeSegs decodes consecutive external values of type t from src into the
// element positions segs selects within dst — the inverse of EncodeSegs.
// src must hold external bytes for exactly the segments' total element
// count.
func DecodeSegs(src []byte, t nctype.Type, segs []mpitype.Segment, dst any) error {
	if t == nctype.Char {
		if d, ok := dst.([]byte); ok {
			pos := int64(0)
			for _, g := range segs {
				if g.Off < 0 || g.Off+g.Len > int64(len(d)) {
					return fmt.Errorf("mpitype: element segment %+v outside buffer of %d", g, len(d))
				}
				if int64(len(src)) < pos+g.Len {
					return nctype.ErrCountMismatch
				}
				copy(d[g.Off:g.Off+g.Len], src[pos:pos+g.Len])
				pos += g.Len
			}
			return nil
		}
		return fmt.Errorf("%w: memory type %T with external char", nctype.ErrTypeMismatch, dst)
	}
	switch d := dst.(type) {
	case []int8:
		if t == nctype.Byte {
			return decSegs8(src, segs, d)
		}
		return decodeSegsNum(src, t, segs, d)
	case []int16:
		if t == nctype.Short {
			return decSegs16(src, segs, d)
		}
		return decodeSegsNum(src, t, segs, d)
	case []int32:
		if t == nctype.Int {
			return decSegs32(src, segs, d)
		}
		return decodeSegsNum(src, t, segs, d)
	case []int64:
		if t == nctype.Int64 {
			return decSegs64(src, segs, d)
		}
		return decodeSegsNum(src, t, segs, d)
	case []uint8:
		if t == nctype.UByte {
			return decSegs8(src, segs, d)
		}
		return decodeSegsNum(src, t, segs, d)
	case []uint16:
		if t == nctype.UShort {
			return decSegs16(src, segs, d)
		}
		return decodeSegsNum(src, t, segs, d)
	case []uint32:
		if t == nctype.UInt {
			return decSegs32(src, segs, d)
		}
		return decodeSegsNum(src, t, segs, d)
	case []uint64:
		if t == nctype.UInt64 {
			return decSegs64(src, segs, d)
		}
		return decodeSegsNum(src, t, segs, d)
	case []float32:
		if t == nctype.Float {
			return decSegsF32(src, segs, d)
		}
		return decodeSegsNum(src, t, segs, d)
	case []float64:
		if t == nctype.Double {
			return decSegsF64(src, segs, d)
		}
		return decodeSegsNum(src, t, segs, d)
	}
	return fmt.Errorf("%w: unsupported memory type %T", nctype.ErrTypeMismatch, dst)
}

func decodeSegsNum[S number](src []byte, t nctype.Type, segs []mpitype.Segment, dst []S) error {
	esz := int64(t.Size())
	if esz == 0 {
		return fmt.Errorf("%w: %v", nctype.ErrBadType, t)
	}
	pos := int64(0)
	for _, s := range segs {
		if s.Off < 0 || s.Len < 0 || s.Off+s.Len > int64(len(dst)) {
			return fmt.Errorf("mpitype: element segment %+v outside buffer of %d", s, len(dst))
		}
		if int64(len(src)) < pos+s.Len*esz {
			return nctype.ErrCountMismatch
		}
		if err := decodeNum(src[pos:], t, dst[s.Off:s.Off+s.Len]); err != nil {
			return err
		}
		pos += s.Len * esz
	}
	return nil
}
