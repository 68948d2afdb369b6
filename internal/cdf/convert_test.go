package cdf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/big"
	"testing"

	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/nctype"
)

// FuzzConvertRuns holds EncodeSegs and DecodeSegs, over every memory type
// and every external type plus Char, to a one-value-at-a-time reference:
// the bytes written, the values read back, the positions left alone and the
// ErrRange verdict must all match it. The input picks the memory type, the
// external type, the runs (lengths 0–9 for the unrolled kernels' tails, and
// long ones, with gaps between) and which edge values fill them.
func FuzzConvertRuns(f *testing.F) {
	many := []byte{0, 1, 2<<6 | 2, 3, 1<<6 | 4, 5, 3<<6 | 6, 7, 8, 1<<6 | 9, 63, 2}
	picks := make([]byte, len(convertEdges))
	for i := range picks {
		picks[i] = byte(i)
	}
	for mem := range convertMems {
		for ext := range convertExts {
			f.Add(uint8(mem), uint8(ext), many, picks)
			f.Add(uint8(mem), uint8(ext), []byte{62}, []byte{7, 0, 3, 12, 1, 30, 19, 25})
		}
	}
	f.Fuzz(func(t *testing.T, mem, ext uint8, runBytes, picks []byte) {
		if len(runBytes) > 64 {
			runBytes = runBytes[:64]
		}
		var runs []mpitype.Segment
		n := int64(0)
		for _, b := range runBytes {
			l := int64(b & 63)
			if l >= 10 {
				l = 10 + 5*l // a long run
			}
			n += int64(b >> 6) // a gap
			runs = append(runs, mpitype.Segment{Off: n, Len: l})
			n += l
		}
		convertMems[int(mem)%len(convertMems)](t, convertExts[int(ext)%len(convertExts)], runs, n+2, picks)
	})
}

// convertMems runs the check for each memory type, named by the external
// type that holds it unconverted.
var convertMems = []func(*testing.T, nctype.Type, []mpitype.Segment, int64, []byte){
	checkConvert[int8], checkConvert[int16], checkConvert[int32], checkConvert[int64],
	checkConvert[uint8], checkConvert[uint16], checkConvert[uint32], checkConvert[uint64],
	checkConvert[float32], checkConvert[float64],
}

var convertExts = []nctype.Type{
	nctype.Byte, nctype.Short, nctype.Int, nctype.Int64, nctype.UByte, nctype.UShort,
	nctype.UInt, nctype.UInt64, nctype.Float, nctype.Double, nctype.Char,
}

// checkConvert encodes the runs of a buffer of n values of S, chosen by
// picks among the edge values S holds, as external type ext, and decodes
// edge values of ext into the runs of another; both must match the
// reference.
func checkConvert[S number](t *testing.T, ext nctype.Type, runs []mpitype.Segment, n int64, picks []byte) {
	mt := hostOf(S(0)).typ
	if ext == nctype.Char && mt != nctype.UByte {
		if _, err := EncodeSegs(nil, ext, make([]S, n), runs); !errors.Is(err, nctype.ErrTypeMismatch) {
			t.Fatalf("encode %v to Char: %v, want a type mismatch", mt, err)
		}
		if err := DecodeSegs(nil, ext, runs, make([]S, n)); !errors.Is(err, nctype.ErrTypeMismatch) {
			t.Fatalf("decode Char to %v: %v, want a type mismatch", mt, err)
		}
		return
	}
	pick := func(i int64, edges []host) host {
		if len(picks) == 0 {
			return edges[i%int64(len(edges))]
		}
		return edges[int(picks[i%int64(len(picks))])%len(edges)]
	}

	// Encode: the bytes of each value of each run, in run order.
	memEdges := edgesOf(mt)
	src := make([]S, n)
	for i := range src {
		src[i] = fromHost[S](pick(int64(i), memEdges))
	}
	var want []byte
	wantMiss := false
	for _, r := range runs {
		for _, v := range src[r.Off : r.Off+r.Len] {
			h := hostOf(v)
			want = append(want, refEncode(h, ext)...)
			wantMiss = wantMiss || !refFits(h, ext)
		}
	}
	prefix := []byte("pre")
	dirty := append(prefix[:3:3], bytes.Repeat([]byte{0xa5}, len(want)+5)...)[:3]
	for _, dst := range [][]byte{prefix[:3:3], dirty} {
		got, err := EncodeSegs(dst, ext, src, runs)
		checkVerdict(t, "encode", mt, ext, err, wantMiss)
		if !bytes.Equal(got[:3], prefix) || !bytes.Equal(got[3:], want) {
			t.Fatalf("encode %v to %v, runs %v: got % x, want % x", mt, ext, runs, got[3:], want)
		}
	}
	if ext == nctype.Char {
		got, err := EncodeSegs(nil, ext, string(any(src).([]byte)), runs)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("encode a string to Char: % x, %v; want % x", got, err, want)
		}
	}

	// Decode: edge values of ext into the runs; the gaps keep their
	// sentinel.
	extEdges := edgesOf(ext)
	var ext64 []byte
	var vals []host
	for i, r := range runs {
		for j := int64(0); j < r.Len; j++ {
			h := pick(int64(i)+j*7, extEdges)
			ext64 = append(ext64, refEncode(h, ext)...)
			vals = append(vals, hostFromExt(ext64[len(ext64)-ext.Size():], ext))
		}
	}
	const sentinel = 42
	dst := make([]S, n)
	wantDst := make([]S, n)
	for i := range dst {
		dst[i], wantDst[i] = sentinel, sentinel
	}
	wantMiss, k := false, 0
	for _, r := range runs {
		for i := r.Off; i < r.Off+r.Len; i++ {
			wantDst[i] = fromHost[S](vals[k])
			wantMiss = wantMiss || !refFits(vals[k], mt)
			k++
		}
	}
	err := DecodeSegs(append(ext64, 0xa5), ext, runs, dst)
	checkVerdict(t, "decode", ext, mt, err, wantMiss)
	for i := range dst {
		if dst[i] != wantDst[i] && (dst[i] == dst[i] || wantDst[i] == wantDst[i]) {
			t.Fatalf("decode %v to %v, runs %v: element %d = %v, want %v", ext, mt, runs, i, dst[i], wantDst[i])
		}
	}
	if len(ext64) > 0 {
		if err := DecodeSegs(ext64[:len(ext64)-1], ext, runs, dst); !errors.Is(err, nctype.ErrCountMismatch) {
			t.Fatalf("decode %v from a byte short: %v, want a count mismatch", ext, err)
		}
	}
}

func checkVerdict(t *testing.T, dir string, from, to nctype.Type, err error, wantMiss bool) {
	t.Helper()
	if err != nil && err != ErrRange || (err == ErrRange) != wantMiss {
		t.Fatalf("%s %v to %v: %v, want ErrRange %v", dir, from, to, err, wantMiss)
	}
}

// host is one number as the reference sees it: the external type whose Go
// type holds it, and its value exactly, as an integer or a float64.
type host struct {
	typ nctype.Type
	i   int64   // Byte, Short, Int, Int64
	u   uint64  // UByte, UShort, UInt, UInt64, Char
	f   float64 // Float, Double
}

func (h host) signed() bool {
	return h.typ == nctype.Byte || h.typ == nctype.Short || h.typ == nctype.Int || h.typ == nctype.Int64
}
func (h host) float() bool { return h.typ == nctype.Float || h.typ == nctype.Double }

func hostOf(v any) host {
	switch x := v.(type) {
	case int8:
		return host{typ: nctype.Byte, i: int64(x)}
	case int16:
		return host{typ: nctype.Short, i: int64(x)}
	case int32:
		return host{typ: nctype.Int, i: int64(x)}
	case int64:
		return host{typ: nctype.Int64, i: x}
	case uint8:
		return host{typ: nctype.UByte, u: uint64(x)}
	case uint16:
		return host{typ: nctype.UShort, u: uint64(x)}
	case uint32:
		return host{typ: nctype.UInt, u: uint64(x)}
	case uint64:
		return host{typ: nctype.UInt64, u: x}
	case float32:
		return host{typ: nctype.Float, f: float64(x)}
	}
	return host{typ: nctype.Double, f: v.(float64)}
}

// fromHost is h as a value of S: Go's conversion from h's own Go type.
func fromHost[S number](h host) S {
	switch {
	case h.signed():
		return S(h.i)
	case h.typ == nctype.Float:
		return S(float32(h.f))
	case h.float():
		return S(h.f)
	}
	return S(h.u)
}

// refFits is netCDF's range rule for storing h as type t. A NaN fits every
// type. A float fits an integer type when its truncation toward zero lies in
// the type's range, which an infinity never does. Only a double can miss
// Float, by being an infinity or finite beyond its largest value; an
// integer or a float never misses Float, nor anything Double.
func refFits(h host, t nctype.Type) bool {
	switch {
	case t == nctype.Double || t == nctype.Char || h.typ == t:
		return true
	case t == nctype.Float:
		return h.typ != nctype.Double || h.f != h.f || math.Abs(h.f) <= math.MaxFloat32
	case h.float() && h.f != h.f:
		return true
	case h.float() && math.IsInf(h.f, 0):
		return false
	}
	var x *big.Int
	switch {
	case h.signed():
		x = big.NewInt(h.i)
	case h.float():
		x, _ = big.NewFloat(math.Trunc(h.f)).Int(nil)
	default:
		x = new(big.Int).SetUint64(h.u)
	}
	lo, hi := rangeOf(t)
	return x.Cmp(big.NewInt(lo)) >= 0 && x.Cmp(new(big.Int).SetUint64(hi)) <= 0
}

// refEncode is h's external bytes as type t: an IEEE value rounded to the
// type, or the low bytes of the two's-complement integer, a float truncated
// toward zero first, all big-endian.
func refEncode(h host, t nctype.Type) []byte {
	var bits uint64
	switch {
	case t == nctype.Double:
		bits = math.Float64bits(fromHost[float64](h))
	case t == nctype.Float:
		bits = uint64(math.Float32bits(fromHost[float32](h)))
	case h.signed():
		bits = uint64(h.i)
	case h.float() && h.f >= 1<<63:
		bits = uint64(h.f)
	case h.float():
		bits = uint64(int64(h.f))
	default:
		bits = h.u
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], bits)
	return b[8-t.Size():]
}

// hostFromExt reads one external value of type t.
func hostFromExt(b []byte, t nctype.Type) host {
	var w [8]byte
	copy(w[8-t.Size():], b[:t.Size()])
	u := binary.BigEndian.Uint64(w[:])
	switch t {
	case nctype.Byte:
		return hostOf(int8(u))
	case nctype.Short:
		return hostOf(int16(u))
	case nctype.Int:
		return hostOf(int32(u))
	case nctype.Int64:
		return hostOf(int64(u))
	case nctype.Float:
		return hostOf(math.Float32frombits(uint32(u)))
	case nctype.Double:
		return hostOf(math.Float64frombits(u))
	}
	return host{typ: t, u: u}
}

// convertEdges are the values the check draws from: zero, ±1, each integer
// type's limits and their neighbours outside, fractions, NaN, the
// infinities, 2^63, 1e19, and Float's and Double's limits.
var convertEdges = func() []host {
	var hs []host
	for _, i := range []int64{0, 1, -1, 127, 128, -128, -129, 255, 256, 32767, 32768, -32768, -32769,
		65535, 65536, math.MaxInt32, math.MaxInt32 + 1, math.MinInt32, math.MinInt32 - 1,
		math.MaxUint32, math.MaxUint32 + 1, math.MinInt64, math.MaxInt64} {
		hs = append(hs, host{typ: nctype.Int64, i: i})
	}
	hs = append(hs, host{typ: nctype.UInt64, u: 1 << 63}, host{typ: nctype.UInt64, u: math.MaxUint64})
	for _, f := range []float64{127.9, -128.9, 0.5, -1.5, 255.5, math.NaN(), math.Inf(1), math.Inf(-1),
		1 << 63, 1e19, -1e19, 1 << 64, math.MaxFloat32, -math.MaxFloat32,
		math.Nextafter(math.MaxFloat32, math.Inf(1)), math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64} {
		hs = append(hs, host{typ: nctype.Double, f: f})
	}
	return hs
}()

// edgesOf is the edge values type t holds: the integers in its range for an
// integer type (bytes for Char), every edge rounded to it for a float type.
func edgesOf(t nctype.Type) []host {
	var hs []host
	for _, h := range convertEdges {
		switch {
		case t == nctype.Float:
			hs = append(hs, hostOf(fromHost[float32](h)))
		case t == nctype.Double:
			hs = append(hs, hostOf(fromHost[float64](h)))
		case t == nctype.Char:
			if !h.float() && refFits(h, nctype.UByte) {
				hs = append(hs, host{typ: nctype.Char, u: uint64(fromHost[uint8](h))})
			}
		case !h.float() && refFits(h, t):
			hs = append(hs, hostFromExt(refEncode(h, t), t))
		}
	}
	return hs
}
