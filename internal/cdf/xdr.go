package cdf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/nctype"
)

// ErrRange mirrors netCDF's NC_ERANGE: one or more values were outside the
// range of the target type. Following the C library, conversion continues
// for the remaining values and the error is reported at the end.
var ErrRange = errors.New("netcdf: numeric conversion out of range")

type number interface {
	int8 | int16 | int32 | int64 | uint8 | uint16 | uint32 | uint64 |
		float32 | float64
}

// EncodeSlice appends the external (big-endian) representation of src, as
// external type t, to dst and returns the extended slice. src must be one of
// the supported numeric slice types, or []byte/string when t is Char.
// Numeric values are converted with C-style truncation; out-of-range values
// yield ErrRange but are still written (wrapped), matching netCDF semantics.
// DecodeSlice converts and reports the same way.
// A contiguous buffer is a single-run case of EncodeSegs, so the identity
// fast paths apply here too.
func EncodeSlice(dst []byte, t nctype.Type, src any) ([]byte, error) {
	if t == nctype.Char {
		switch s := src.(type) {
		case []byte:
			return append(dst, s...), nil
		case string:
			return append(dst, s...), nil
		}
		return dst, fmt.Errorf("%w: memory type %T with external char", nctype.ErrTypeMismatch, src)
	}
	n := SliceLen(src)
	if n < 0 {
		return dst, fmt.Errorf("%w: unsupported memory type %T", nctype.ErrTypeMismatch, src)
	}
	return EncodeSegs(dst, t, src, []mpitype.Segment{{Off: 0, Len: int64(n)}})
}

// encodeNum converts src to external type t, appending to dst. The output
// region is presized in one step and filled by index, so the conversion loop
// carries no append bookkeeping and a caller that recycles dst across calls
// (ext-buffer pooling in core) triggers no growth at all. Every value is
// converted; ErrRange reports one or more that did not fit.
func encodeNum[S number](dst []byte, t nctype.Type, src []S) ([]byte, error) {
	esz := t.Size()
	if esz == 0 || t == nctype.Char {
		if t == nctype.Char {
			return dst, nctype.ErrTypeMismatch
		}
		return dst, fmt.Errorf("%w: %v", nctype.ErrBadType, t)
	}
	base := len(dst)
	n := len(src) * esz
	if cap(dst)-base >= n {
		// Extend within capacity without clearing: every byte of the
		// extension is overwritten below.
		dst = dst[:base+n]
	} else {
		dst = append(dst, make([]byte, n)...)
	}
	out := dst[base:]
	c, bad := newConversion(typeOf[S](), t), false
	switch {
	case t == nctype.Double:
		for i, v := range src {
			binary.BigEndian.PutUint64(out[i*8:], math.Float64bits(float64(v)))
		}
	case t == nctype.Float:
		for i, v := range src {
			bad = bad || c.check && misses(c, v)
			binary.BigEndian.PutUint32(out[i*4:], math.Float32bits(float32(v)))
		}
	case esz == 1:
		for i, v := range src {
			bad = bad || c.check && misses(c, v)
			out[i] = byte(wrap(v))
		}
	case esz == 2:
		for i, v := range src {
			bad = bad || c.check && misses(c, v)
			binary.BigEndian.PutUint16(out[i*2:], uint16(wrap(v)))
		}
	case esz == 4:
		for i, v := range src {
			bad = bad || c.check && misses(c, v)
			binary.BigEndian.PutUint32(out[i*4:], uint32(wrap(v)))
		}
	default:
		for i, v := range src {
			bad = bad || c.check && misses(c, v)
			binary.BigEndian.PutUint64(out[i*8:], wrap(v))
		}
	}
	if bad {
		return dst, ErrRange
	}
	return dst, nil
}

// wrap is the two's-complement bits an integer conversion of v stores: a
// float truncated toward zero, an integer as it is, which its external
// width then cuts.
func wrap[V number](v V) uint64 {
	if V(1)/2 != 0 && float64(v) >= 1<<63 {
		return uint64(float64(v))
	}
	return uint64(int64(v))
}

// conversion is what checking one call's values against their target type
// takes, worked out once per call. A value misses when it lies outside
// [lo, hi], or for a float value when its truncation toward zero lies outside
// [flo, fhi): an integer target's range, or Float's finite one. As in
// netCDF-C, a NaN fits every type and an infinity only Double.
type conversion struct {
	check    bool // some value of the source type can miss
	lo       int64
	hi       uint64
	flo, fhi float64
}

func newConversion(from, to nctype.Type) conversion {
	var c conversion
	switch to {
	case nctype.Double:
		return c
	case nctype.Float:
		c.flo, c.fhi = -math.MaxFloat32, math.Nextafter(math.MaxFloat32, math.Inf(1))
		c.check = from == nctype.Double
		return c
	}
	c.lo, c.hi = rangeOf(to)
	c.flo, c.fhi = float64(c.lo), float64(c.hi)+1 // hi+1 rounds to the power of two above hi
	switch from {
	case nctype.Float, nctype.Double:
		c.check = true
	default:
		lo, hi := rangeOf(from)
		c.check = misses(c, lo) || misses(c, hi)
	}
	return c
}

// misses reports whether v leaves c's range. Callers test c.check first:
// this small a function inlines into the conversion loops.
func misses[V number](c conversion, v V) bool {
	switch {
	case V(1)/2 != 0: // floating point
		f := math.Trunc(float64(v))
		return f < c.flo || f >= c.fhi
	case V(0)-1 < 0: // signed
		x := int64(v)
		return x < c.lo || x >= 0 && uint64(x) > c.hi
	}
	return uint64(v) > c.hi
}

// rangeOf is integer type t's range; zeros for Float and Double.
func rangeOf(t nctype.Type) (lo int64, hi uint64) {
	switch t {
	case nctype.Byte:
		return math.MinInt8, math.MaxInt8
	case nctype.UByte:
		return 0, math.MaxUint8
	case nctype.Short:
		return math.MinInt16, math.MaxInt16
	case nctype.UShort:
		return 0, math.MaxUint16
	case nctype.Int:
		return math.MinInt32, math.MaxInt32
	case nctype.UInt:
		return 0, math.MaxUint32
	case nctype.Int64:
		return math.MinInt64, math.MaxInt64
	case nctype.UInt64:
		return 0, math.MaxUint64
	}
	return 0, 0
}

// DecodeSlice decodes len(dst-slice) external values of type t from src into
// dst, which must be a supported numeric slice, or []byte when t is Char.
// src must hold at least n*t.Size() bytes.
func DecodeSlice(src []byte, t nctype.Type, dst any) error {
	if t == nctype.Char {
		if d, ok := dst.([]byte); ok {
			if len(src) < len(d) {
				return nctype.ErrCountMismatch
			}
			copy(d, src)
			return nil
		}
		return fmt.Errorf("%w: memory type %T with external char", nctype.ErrTypeMismatch, dst)
	}
	n := SliceLen(dst)
	if n < 0 || isString(dst) {
		return fmt.Errorf("%w: unsupported memory type %T", nctype.ErrTypeMismatch, dst)
	}
	return DecodeSegs(src, t, []mpitype.Segment{{Off: 0, Len: int64(n)}}, dst)
}

func isString(v any) bool {
	_, ok := v.(string)
	return ok
}

// decodeNum converts len(dst) external values of type t from src into dst.
// Every value is converted; ErrRange reports one or more that did not fit.
func decodeNum[S number](src []byte, t nctype.Type, dst []S) error {
	esz := t.Size()
	if esz == 0 {
		return fmt.Errorf("%w: %v", nctype.ErrBadType, t)
	}
	if len(src) < len(dst)*esz {
		return nctype.ErrCountMismatch
	}
	c, bad := newConversion(t, typeOf[S]()), false
	switch t {
	case nctype.Byte:
		for i := range dst {
			x := int8(src[i])
			dst[i], bad = S(x), bad || c.check && misses(c, x)
		}
	case nctype.UByte:
		for i := range dst {
			x := src[i]
			dst[i], bad = S(x), bad || c.check && misses(c, x)
		}
	case nctype.Short:
		for i := range dst {
			x := int16(binary.BigEndian.Uint16(src[i*2:]))
			dst[i], bad = S(x), bad || c.check && misses(c, x)
		}
	case nctype.UShort:
		for i := range dst {
			x := binary.BigEndian.Uint16(src[i*2:])
			dst[i], bad = S(x), bad || c.check && misses(c, x)
		}
	case nctype.Int:
		for i := range dst {
			x := int32(binary.BigEndian.Uint32(src[i*4:]))
			dst[i], bad = S(x), bad || c.check && misses(c, x)
		}
	case nctype.UInt:
		for i := range dst {
			x := binary.BigEndian.Uint32(src[i*4:])
			dst[i], bad = S(x), bad || c.check && misses(c, x)
		}
	case nctype.Int64:
		for i := range dst {
			x := int64(binary.BigEndian.Uint64(src[i*8:]))
			dst[i], bad = S(x), bad || c.check && misses(c, x)
		}
	case nctype.UInt64:
		for i := range dst {
			x := binary.BigEndian.Uint64(src[i*8:])
			dst[i], bad = S(x), bad || c.check && misses(c, x)
		}
	case nctype.Float:
		for i := range dst {
			x := math.Float32frombits(binary.BigEndian.Uint32(src[i*4:]))
			dst[i], bad = S(x), bad || c.check && misses(c, x)
		}
	case nctype.Double:
		for i := range dst {
			x := math.Float64frombits(binary.BigEndian.Uint64(src[i*8:]))
			dst[i], bad = S(x), bad || c.check && misses(c, x)
		}
	default:
		return fmt.Errorf("%w: %v", nctype.ErrBadType, t)
	}
	if bad {
		return ErrRange
	}
	return nil
}

// typeOf is the external type that holds memory type S unconverted.
func typeOf[S number]() nctype.Type {
	switch any(S(0)).(type) {
	case int8:
		return nctype.Byte
	case uint8:
		return nctype.UByte
	case int16:
		return nctype.Short
	case uint16:
		return nctype.UShort
	case int32:
		return nctype.Int
	case uint32:
		return nctype.UInt
	case int64:
		return nctype.Int64
	case uint64:
		return nctype.UInt64
	case float32:
		return nctype.Float
	}
	return nctype.Double
}

// SliceLen returns the number of elements in any supported buffer type, or
// -1 if the type is unsupported.
func SliceLen(buf any) int {
	switch b := buf.(type) {
	case []int8:
		return len(b)
	case []int16:
		return len(b)
	case []int32:
		return len(b)
	case []int64:
		return len(b)
	case []uint8:
		return len(b)
	case []uint16:
		return len(b)
	case []uint32:
		return len(b)
	case []uint64:
		return len(b)
	case []float32:
		return len(b)
	case []float64:
		return len(b)
	case string:
		return len(b)
	}
	return -1
}

// promoteScalar turns a scalar attribute value into a slice of one.
func promoteScalar(v any) any {
	switch s := v.(type) {
	case int8:
		return []int8{s}
	case int16:
		return []int16{s}
	case int32:
		return []int32{s}
	case int64:
		return []int64{s}
	case int:
		return []int64{int64(s)}
	case uint8:
		return []uint8{s}
	case uint16:
		return []uint16{s}
	case uint32:
		return []uint32{s}
	case uint64:
		return []uint64{s}
	case float32:
		return []float32{s}
	case float64:
		return []float64{s}
	}
	return v
}
