package cdf

import (
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
// DecodeSlice converts and reports the same way. A contiguous buffer is
// EncodeSegs with one run.
func EncodeSlice(dst []byte, t nctype.Type, src any) ([]byte, error) {
	n := SliceLen(src)
	if n < 0 {
		return dst, fmt.Errorf("%w: unsupported memory type %T", nctype.ErrTypeMismatch, src)
	}
	return EncodeSegs(dst, t, src, []mpitype.Segment{{Len: int64(n)}})
}

// DecodeSlice decodes len(dst-slice) external values of type t from src into
// dst, which must be a supported numeric slice, or []byte when t is Char.
// src must hold at least n*t.Size() bytes. It is DecodeSegs with one run.
func DecodeSlice(src []byte, t nctype.Type, dst any) error {
	n := SliceLen(dst)
	if n < 0 {
		return fmt.Errorf("%w: unsupported memory type %T", nctype.ErrTypeMismatch, dst)
	}
	return DecodeSegs(src, t, []mpitype.Segment{{Len: int64(n)}}, dst)
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

// newConversion is the check of values of type from converted to type to.
// An identity pair returns at once: no value can miss its own type.
func newConversion(from, to nctype.Type) conversion {
	var c conversion
	switch {
	case from == to || to == nctype.Double:
		return c
	case to == nctype.Float:
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
// this small a function inlines into the check loops.
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

// NewSlice makes n elements of the memory type that holds external type t
// unconverted ([]byte for Char), or returns nil when t is no type.
func NewSlice(t nctype.Type, n int64) any {
	switch t {
	case nctype.Char, nctype.UByte:
		return make([]uint8, n)
	case nctype.Byte:
		return make([]int8, n)
	case nctype.Short:
		return make([]int16, n)
	case nctype.UShort:
		return make([]uint16, n)
	case nctype.Int:
		return make([]int32, n)
	case nctype.UInt:
		return make([]uint32, n)
	case nctype.Int64:
		return make([]int64, n)
	case nctype.UInt64:
		return make([]uint64, n)
	case nctype.Float:
		return make([]float32, n)
	case nctype.Double:
		return make([]float64, n)
	}
	return nil
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
