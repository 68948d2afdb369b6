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
	~int8 | ~int16 | ~int32 | ~int64 | ~uint8 | ~uint16 | ~uint32 | ~uint64 |
		~float32 | ~float64
}

// EncodeSlice appends the external (big-endian) representation of src, as
// external type t, to dst and returns the extended slice. src must be one of
// the supported numeric slice types, or []byte/string when t is Char.
// Numeric values are converted with C-style truncation; out-of-range values
// yield ErrRange but are still written (wrapped), matching netCDF semantics.
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
// (ext-buffer pooling in core) triggers no growth at all.
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
	rangeErr := false
	switch t {
	case nctype.Byte:
		for i, v := range src {
			x := int64(v)
			if x < math.MinInt8 || x > math.MaxInt8 {
				rangeErr = true
			}
			out[i] = byte(int8(x))
		}
	case nctype.UByte:
		for i, v := range src {
			x := int64(v)
			if x < 0 || x > math.MaxUint8 {
				rangeErr = true
			}
			out[i] = byte(x)
		}
	case nctype.Short:
		for i, v := range src {
			x := int64(v)
			if x < math.MinInt16 || x > math.MaxInt16 {
				rangeErr = true
			}
			binary.BigEndian.PutUint16(out[i*2:], uint16(int16(x)))
		}
	case nctype.UShort:
		for i, v := range src {
			x := int64(v)
			if x < 0 || x > math.MaxUint16 {
				rangeErr = true
			}
			binary.BigEndian.PutUint16(out[i*2:], uint16(x))
		}
	case nctype.Int:
		for i, v := range src {
			x := int64(v)
			if x < math.MinInt32 || x > math.MaxInt32 {
				rangeErr = true
			}
			binary.BigEndian.PutUint32(out[i*4:], uint32(int32(x)))
		}
	case nctype.UInt:
		for i, v := range src {
			x := int64(v)
			if x < 0 || x > math.MaxUint32 {
				rangeErr = true
			}
			binary.BigEndian.PutUint32(out[i*4:], uint32(x))
		}
	case nctype.Int64:
		for i, v := range src {
			binary.BigEndian.PutUint64(out[i*8:], uint64(int64(v)))
		}
	case nctype.UInt64:
		for i, v := range src {
			if isNeg(v) {
				rangeErr = true
			}
			binary.BigEndian.PutUint64(out[i*8:], uint64(int64(v)))
		}
	case nctype.Float:
		for i, v := range src {
			f := float64(v)
			if f > math.MaxFloat32 || f < -math.MaxFloat32 {
				rangeErr = true
			}
			binary.BigEndian.PutUint32(out[i*4:], math.Float32bits(float32(f)))
		}
	case nctype.Double:
		for i, v := range src {
			binary.BigEndian.PutUint64(out[i*8:], math.Float64bits(float64(v)))
		}
	}
	if rangeErr {
		return dst, ErrRange
	}
	return dst, nil
}

func isNeg[S number](v S) bool { return float64(v) < 0 }

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

func decodeNum[S number](src []byte, t nctype.Type, dst []S) error {
	esz := t.Size()
	if esz == 0 {
		return fmt.Errorf("%w: %v", nctype.ErrBadType, t)
	}
	if len(src) < len(dst)*esz {
		return nctype.ErrCountMismatch
	}
	switch t {
	case nctype.Byte:
		for i := range dst {
			dst[i] = S(int8(src[i]))
		}
	case nctype.UByte:
		for i := range dst {
			dst[i] = S(src[i])
		}
	case nctype.Short:
		for i := range dst {
			dst[i] = S(int16(binary.BigEndian.Uint16(src[i*2:])))
		}
	case nctype.UShort:
		for i := range dst {
			dst[i] = S(binary.BigEndian.Uint16(src[i*2:]))
		}
	case nctype.Int:
		for i := range dst {
			dst[i] = S(int32(binary.BigEndian.Uint32(src[i*4:])))
		}
	case nctype.UInt:
		for i := range dst {
			dst[i] = S(binary.BigEndian.Uint32(src[i*4:]))
		}
	case nctype.Int64:
		for i := range dst {
			dst[i] = S(int64(binary.BigEndian.Uint64(src[i*8:])))
		}
	case nctype.UInt64:
		for i := range dst {
			dst[i] = S(binary.BigEndian.Uint64(src[i*8:]))
		}
	case nctype.Float:
		for i := range dst {
			dst[i] = S(math.Float32frombits(binary.BigEndian.Uint32(src[i*4:])))
		}
	case nctype.Double:
		for i := range dst {
			dst[i] = S(math.Float64frombits(binary.BigEndian.Uint64(src[i*8:])))
		}
	default:
		return fmt.Errorf("%w: %v", nctype.ErrBadType, t)
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

// MakeAttr builds an Attr from a Go value (scalar or slice of a supported
// type, or a string for Char attributes).
func MakeAttr(name string, t nctype.Type, value any) (Attr, error) {
	var vals arena[byte]
	return makeAttr(&vals, name, t, value)
}

// makeAttr is MakeAttr encoding the value straight into a slice carved from
// vals.
func makeAttr(vals *arena[byte], name string, t nctype.Type, value any) (Attr, error) {
	value = promoteScalar(value)
	n := SliceLen(value)
	if n < 0 {
		return Attr{}, fmt.Errorf("%w: attribute value %T", nctype.ErrTypeMismatch, value)
	}
	buf, err := EncodeSlice(vals.carve(n*t.Size(), valueSlabLen)[:0], t, value)
	if err != nil {
		return Attr{}, err
	}
	return Attr{Name: name, Type: t, Nelems: int64(n), Values: buf}, nil
}

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
