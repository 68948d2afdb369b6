package cdf

import (
	"encoding/binary"
	"fmt"
	"math"

	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/nctype"
)

// Run-length pack/unpack over a flattened typemap. The flexible and imap
// APIs describe the user's memory as element segments (runs of contiguous
// elements); a contiguous buffer is one run. The codec walks the runs
// directly, with no linear copy of the selection gathered first: a gather
// would touch every byte twice and allocate a selection-sized slice.
//
// Each direction has one kernel per external form, generic in the memory
// type. A memory type that equals the external type is the case of its
// kernel where no value can miss, so its conversion is set up as no check
// at all; there is no separate identity path.

// EncodeSegs appends the external (big-endian) representation, as type t, of
// the elements segs selects from src. Segment offsets and lengths are in
// elements of src. Out-of-range values yield ErrRange but conversion
// continues, matching EncodeSlice.
func EncodeSegs(dst []byte, t nctype.Type, src any, segs []mpitype.Segment) ([]byte, error) {
	if t == nctype.Char {
		switch s := src.(type) {
		case []byte:
			return encodeRuns(dst, nctype.Char, t, s, segs)
		case string:
			return gatherSegs(dst, s, segs)
		}
		return dst, fmt.Errorf("%w: memory type %T with external char", nctype.ErrTypeMismatch, src)
	}
	switch s := src.(type) {
	case []int8:
		return encodeRuns(dst, nctype.Byte, t, s, segs)
	case []int16:
		return encodeRuns(dst, nctype.Short, t, s, segs)
	case []int32:
		return encodeRuns(dst, nctype.Int, t, s, segs)
	case []int64:
		return encodeRuns(dst, nctype.Int64, t, s, segs)
	case []uint8:
		return encodeRuns(dst, nctype.UByte, t, s, segs)
	case []uint16:
		return encodeRuns(dst, nctype.UShort, t, s, segs)
	case []uint32:
		return encodeRuns(dst, nctype.UInt, t, s, segs)
	case []uint64:
		return encodeRuns(dst, nctype.UInt64, t, s, segs)
	case []float32:
		return encodeRuns(dst, nctype.Float, t, s, segs)
	case []float64:
		return encodeRuns(dst, nctype.Double, t, s, segs)
	}
	return dst, fmt.Errorf("%w: unsupported memory type %T", nctype.ErrTypeMismatch, src)
}

// DecodeSegs decodes consecutive external values of type t from src into the
// element positions segs selects within dst — the inverse of EncodeSegs.
// src must hold external bytes for the segments' total element count.
// Out-of-range values yield ErrRange but conversion continues, as in
// EncodeSegs.
func DecodeSegs(src []byte, t nctype.Type, segs []mpitype.Segment, dst any) error {
	if t == nctype.Char {
		if d, ok := dst.([]byte); ok {
			return decodeRuns(src, t, nctype.Char, segs, d)
		}
		return fmt.Errorf("%w: memory type %T with external char", nctype.ErrTypeMismatch, dst)
	}
	switch d := dst.(type) {
	case []int8:
		return decodeRuns(src, t, nctype.Byte, segs, d)
	case []int16:
		return decodeRuns(src, t, nctype.Short, segs, d)
	case []int32:
		return decodeRuns(src, t, nctype.Int, segs, d)
	case []int64:
		return decodeRuns(src, t, nctype.Int64, segs, d)
	case []uint8:
		return decodeRuns(src, t, nctype.UByte, segs, d)
	case []uint16:
		return decodeRuns(src, t, nctype.UShort, segs, d)
	case []uint32:
		return decodeRuns(src, t, nctype.UInt, segs, d)
	case []uint64:
		return decodeRuns(src, t, nctype.UInt64, segs, d)
	case []float32:
		return decodeRuns(src, t, nctype.Float, segs, d)
	case []float64:
		return decodeRuns(src, t, nctype.Double, segs, d)
	}
	return fmt.Errorf("%w: unsupported memory type %T", nctype.ErrTypeMismatch, dst)
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
	_, err = segsTotal(SliceLen(mem), segs)
	return err
}

// segsTotal checks that every segment lies within a buffer of n elements and
// returns their total length.
func segsTotal(n int, segs []mpitype.Segment) (int64, error) {
	var total int64
	for _, s := range segs {
		if s.Off < 0 || s.Len < 0 || s.Off+s.Len > int64(n) {
			return 0, fmt.Errorf("mpitype: element segment %+v outside buffer of %d", s, n)
		}
		total += s.Len
	}
	return total, nil
}

func gatherSegs(dst []byte, src string, segs []mpitype.Segment) ([]byte, error) {
	if _, err := segsTotal(len(src), segs); err != nil {
		return dst, err
	}
	for _, g := range segs {
		dst = append(dst, src[g.Off:g.Off+g.Len]...)
	}
	return dst, nil
}

// encodeRuns appends the runs segs selects from src, whose memory type is
// the external type from, converted to external type t. dst grows once, and
// within its capacity without clearing: the kernel writes every byte. The
// range check is a pass of its own, made only when some value of from can
// miss t, so the conversion loops carry no check.
func encodeRuns[S number](dst []byte, from, t nctype.Type, src []S, segs []mpitype.Segment) ([]byte, error) {
	esz := t.Size()
	if esz == 0 {
		return dst, fmt.Errorf("%w: %v", nctype.ErrBadType, t)
	}
	total, err := segsTotal(len(src), segs)
	if err != nil {
		return dst, err
	}
	base, n := len(dst), int(total)*esz
	if cap(dst)-base >= n {
		dst = dst[:base+n]
	} else {
		dst = append(dst, make([]byte, n)...)
	}
	out := dst[base:]
	switch {
	case t == nctype.Double:
		encDouble(out, src, segs)
	case t == nctype.Float:
		encFloat(out, src, segs)
	case esz == 1:
		enc8(out, src, segs)
	case esz == 2:
		enc16(out, src, segs)
	case esz == 4:
		enc32(out, src, segs)
	default:
		enc64(out, src, segs)
	}
	if c := newConversion(from, t); c.check && runsMiss(c, src, segs) {
		return dst, ErrRange
	}
	return dst, nil
}

// runsMiss reports whether a value among the runs misses c.
func runsMiss[S number](c conversion, src []S, segs []mpitype.Segment) bool {
	for _, sg := range segs {
		for _, v := range src[sg.Off : sg.Off+sg.Len] {
			if misses(c, v) {
				return true
			}
		}
	}
	return false
}

// decodeRuns decodes consecutive external values of type t from src into
// the runs segs selects in dst, whose memory type is the external type to.
// The range check, when some value of t can miss to, is one pass over the
// external bytes.
func decodeRuns[S number](src []byte, t, to nctype.Type, segs []mpitype.Segment, dst []S) error {
	esz := int64(t.Size())
	if esz == 0 {
		return fmt.Errorf("%w: %v", nctype.ErrBadType, t)
	}
	total, err := segsTotal(len(dst), segs)
	if err != nil {
		return err
	}
	if int64(len(src)) < total*esz {
		return nctype.ErrCountMismatch
	}
	decodeKernel(src, t, segs, dst)
	if c := newConversion(t, to); c.check && extMisses(c, t, src[:total*esz]) {
		return ErrRange
	}
	return nil
}

// decodeKernel runs t's decode kernel. src holds the runs' external values.
func decodeKernel[S number](src []byte, t nctype.Type, segs []mpitype.Segment, dst []S) {
	switch t {
	case nctype.Byte:
		dec8[int8](src, segs, dst)
	case nctype.UByte, nctype.Char:
		dec8[uint8](src, segs, dst)
	case nctype.Short:
		dec16[int16](src, segs, dst)
	case nctype.UShort:
		dec16[uint16](src, segs, dst)
	case nctype.Int:
		dec32[int32](src, segs, dst)
	case nctype.UInt:
		dec32[uint32](src, segs, dst)
	case nctype.Int64:
		dec64[int64](src, segs, dst)
	case nctype.UInt64:
		dec64[uint64](src, segs, dst)
	case nctype.Float:
		decFloat(src, segs, dst)
	case nctype.Double:
		decDouble(src, segs, dst)
	}
}

// extMisses reports whether a value among src, external values of type t,
// misses c. It decodes src a block at a time into the 64-bit host form of
// t's kind, which holds every value of t exactly.
func extMisses(c conversion, t nctype.Type, src []byte) bool {
	switch t {
	case nctype.Float, nctype.Double:
		return blockMisses[float64](c, t, src)
	case nctype.Byte, nctype.Short, nctype.Int, nctype.Int64:
		return blockMisses[int64](c, t, src)
	}
	return blockMisses[uint64](c, t, src)
}

func blockMisses[H int64 | uint64 | float64](c conversion, t nctype.Type, src []byte) bool {
	var block [256]H
	esz := t.Size()
	for len(src) > 0 {
		n := min(len(block), len(src)/esz)
		decodeKernel(src, t, []mpitype.Segment{{Len: int64(n)}}, block[:n])
		for _, h := range block[:n] {
			if misses(c, h) {
				return true
			}
		}
		src = src[n*esz:]
	}
	return false
}

// The kernels. Each is kept out of line, so that its loop is compiled on its
// own: whether an inlined loop keeps its slices in registers depends on the
// function it lands in. Inlined into a ten-case dispatcher, the Double
// decode loop once spilled dst to the stack on every element, and a FLASH
// checkpoint read-back ran a fifth slower. The Float kernels move four
// values per two 8-byte stores or loads: runs from flattened subarrays are
// short (the innermost dimension), so per-element slice bookkeeping weighs
// more than it would on one long loop.

//go:noinline
func encDouble[S number](out []byte, src []S, segs []mpitype.Segment) {
	for _, sg := range segs {
		for _, v := range src[sg.Off : sg.Off+sg.Len] {
			binary.BigEndian.PutUint64(out, math.Float64bits(float64(v)))
			out = out[8:]
		}
	}
}

//go:noinline
func encFloat[S number](out []byte, src []S, segs []mpitype.Segment) {
	for _, sg := range segs {
		run := src[sg.Off : sg.Off+sg.Len]
		i := 0
		for ; i+3 < len(run); i += 4 {
			w0 := uint64(math.Float32bits(float32(run[i])))<<32 | uint64(math.Float32bits(float32(run[i+1])))
			w1 := uint64(math.Float32bits(float32(run[i+2])))<<32 | uint64(math.Float32bits(float32(run[i+3])))
			binary.BigEndian.PutUint64(out, w0)
			binary.BigEndian.PutUint64(out[8:], w1)
			out = out[16:]
		}
		for ; i < len(run); i++ {
			binary.BigEndian.PutUint32(out, math.Float32bits(float32(run[i])))
			out = out[4:]
		}
	}
}

//go:noinline
func enc8[S number](out []byte, src []S, segs []mpitype.Segment) {
	for _, sg := range segs {
		run := src[sg.Off : sg.Off+sg.Len]
		for i, v := range run {
			out[i] = byte(wrap(v))
		}
		out = out[len(run):]
	}
}

//go:noinline
func enc16[S number](out []byte, src []S, segs []mpitype.Segment) {
	for _, sg := range segs {
		for _, v := range src[sg.Off : sg.Off+sg.Len] {
			binary.BigEndian.PutUint16(out, uint16(wrap(v)))
			out = out[2:]
		}
	}
}

//go:noinline
func enc32[S number](out []byte, src []S, segs []mpitype.Segment) {
	for _, sg := range segs {
		for _, v := range src[sg.Off : sg.Off+sg.Len] {
			binary.BigEndian.PutUint32(out, uint32(wrap(v)))
			out = out[4:]
		}
	}
}

//go:noinline
func enc64[S number](out []byte, src []S, segs []mpitype.Segment) {
	for _, sg := range segs {
		for _, v := range src[sg.Off : sg.Off+sg.Len] {
			binary.BigEndian.PutUint64(out, wrap(v))
			out = out[8:]
		}
	}
}

// The integer decode kernels are generic in X, the Go type of the external
// type, as well: one function of each width serves its signed and its
// unsigned type.

//go:noinline
func dec8[X int8 | uint8, S number](src []byte, segs []mpitype.Segment, dst []S) {
	for _, sg := range segs {
		run := dst[sg.Off : sg.Off+sg.Len]
		for i := range run {
			run[i] = S(X(src[i]))
		}
		src = src[len(run):]
	}
}

//go:noinline
func dec16[X int16 | uint16, S number](src []byte, segs []mpitype.Segment, dst []S) {
	for _, sg := range segs {
		run := dst[sg.Off : sg.Off+sg.Len]
		for i := range run {
			run[i] = S(X(binary.BigEndian.Uint16(src[i*2:])))
		}
		src = src[len(run)*2:]
	}
}

//go:noinline
func dec32[X int32 | uint32, S number](src []byte, segs []mpitype.Segment, dst []S) {
	for _, sg := range segs {
		run := dst[sg.Off : sg.Off+sg.Len]
		for i := range run {
			run[i] = S(X(binary.BigEndian.Uint32(src[i*4:])))
		}
		src = src[len(run)*4:]
	}
}

//go:noinline
func dec64[X int64 | uint64, S number](src []byte, segs []mpitype.Segment, dst []S) {
	for _, sg := range segs {
		run := dst[sg.Off : sg.Off+sg.Len]
		for i := range run {
			run[i] = S(X(binary.BigEndian.Uint64(src[i*8:])))
		}
		src = src[len(run)*8:]
	}
}

//go:noinline
func decFloat[S number](src []byte, segs []mpitype.Segment, dst []S) {
	for _, sg := range segs {
		run := dst[sg.Off : sg.Off+sg.Len]
		i := 0
		for ; i+3 < len(run); i += 4 {
			w0 := binary.BigEndian.Uint64(src)
			w1 := binary.BigEndian.Uint64(src[8:])
			run[i] = S(math.Float32frombits(uint32(w0 >> 32)))
			run[i+1] = S(math.Float32frombits(uint32(w0)))
			run[i+2] = S(math.Float32frombits(uint32(w1 >> 32)))
			run[i+3] = S(math.Float32frombits(uint32(w1)))
			src = src[16:]
		}
		for ; i < len(run); i++ {
			run[i] = S(math.Float32frombits(binary.BigEndian.Uint32(src)))
			src = src[4:]
		}
	}
}

//go:noinline
func decDouble[S number](src []byte, segs []mpitype.Segment, dst []S) {
	for _, sg := range segs {
		run := dst[sg.Off : sg.Off+sg.Len]
		for i := range run {
			run[i] = S(math.Float64frombits(binary.BigEndian.Uint64(src[i*8:])))
		}
		src = src[len(run)*8:]
	}
}
