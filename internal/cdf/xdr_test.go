package cdf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pnetcdf/internal/nctype"
)

func TestEncodeDecodeExactTypes(t *testing.T) {
	check := func(name string, tp nctype.Type, src, dst any, eq func() bool) {
		buf, err := EncodeSlice(nil, tp, src)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if err := DecodeSlice(buf, tp, dst); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !eq() {
			t.Fatalf("%s: round trip mismatch: %v -> %v", name, src, dst)
		}
	}
	{
		src := []int8{-128, -1, 0, 1, 127}
		dst := make([]int8, len(src))
		check("byte", nctype.Byte, src, dst, func() bool { return sliceEq(src, dst) })
	}
	{
		src := []int16{-32768, -7, 0, 9, 32767}
		dst := make([]int16, len(src))
		check("short", nctype.Short, src, dst, func() bool { return sliceEq(src, dst) })
	}
	{
		src := []int32{math.MinInt32, -1, 0, 42, math.MaxInt32}
		dst := make([]int32, len(src))
		check("int", nctype.Int, src, dst, func() bool { return sliceEq(src, dst) })
	}
	{
		src := []float32{-1.5, 0, float32(math.Pi), math.MaxFloat32}
		dst := make([]float32, len(src))
		check("float", nctype.Float, src, dst, func() bool { return sliceEq(src, dst) })
	}
	{
		src := []float64{-1.5, 0, math.Pi, math.MaxFloat64}
		dst := make([]float64, len(src))
		check("double", nctype.Double, src, dst, func() bool { return sliceEq(src, dst) })
	}
	{
		src := []int64{math.MinInt64, -1, 0, math.MaxInt64}
		dst := make([]int64, len(src))
		check("int64", nctype.Int64, src, dst, func() bool { return sliceEq(src, dst) })
	}
	{
		src := []uint64{0, 1, math.MaxUint64}
		dst := make([]uint64, len(src))
		check("uint64", nctype.UInt64, src, dst, func() bool { return sliceEq(src, dst) })
	}
}

func sliceEq[S comparable](a, b []S) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBigEndianOnDisk(t *testing.T) {
	buf, err := EncodeSlice(nil, nctype.Int, []int32{0x01020304})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 2, 3, 4}
	if string(buf) != string(want) {
		t.Fatalf("int32 encoding = %v, want big-endian %v", buf, want)
	}
	buf, err = EncodeSlice(nil, nctype.Float, []float32{1.0})
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != string([]byte{0x3F, 0x80, 0, 0}) {
		t.Fatalf("float encoding = %v, want IEEE big-endian", buf)
	}
}

func TestCrossTypeConversion(t *testing.T) {
	// float64 memory -> int external (C truncation semantics).
	buf, err := EncodeSlice(nil, nctype.Int, []float64{1.9, -2.9, 3.0})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int32, 3)
	if err := DecodeSlice(buf, nctype.Int, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != -2 || got[2] != 3 {
		t.Fatalf("truncation: got %v, want [1 -2 3]", got)
	}
	// short external read back as float64.
	buf, err = EncodeSlice(nil, nctype.Short, []int16{-5, 7})
	if err != nil {
		t.Fatal(err)
	}
	f := make([]float64, 2)
	if err := DecodeSlice(buf, nctype.Short, f); err != nil {
		t.Fatal(err)
	}
	if f[0] != -5 || f[1] != 7 {
		t.Fatalf("widening: got %v", f)
	}
}

func TestRangeErrors(t *testing.T) {
	cases := []struct {
		tp  nctype.Type
		src any
	}{
		{nctype.Byte, []int32{300}},
		{nctype.Byte, []int32{-300}},
		{nctype.Short, []int64{1 << 20}},
		{nctype.Int, []int64{1 << 40}},
		{nctype.UByte, []int16{-1}},
		{nctype.UShort, []int32{-1}},
		{nctype.UInt, []int64{-1}},
		{nctype.UInt64, []float64{-1}},
		{nctype.Float, []float64{1e300}},
		// An unsigned value above MaxInt64 must not wrap into range.
		{nctype.Int, []uint64{math.MaxUint64}},
		{nctype.Byte, []uint64{math.MaxUint64}},
		{nctype.Int64, []uint64{1 << 63}},
		// Nor may a float beyond the 64-bit types.
		{nctype.Int64, []float64{1e30}},
		{nctype.UInt64, []float64{1e30}},
		{nctype.Int64, []float64{-1e30}},
	}
	for i, c := range cases {
		if _, err := EncodeSlice(nil, c.tp, c.src); !errors.Is(err, ErrRange) {
			t.Errorf("case %d (%v <- %v): err = %v, want ErrRange", i, c.tp, c.src, err)
		}
	}
	// In-range values of the same shapes must not error.
	for _, c := range []struct {
		tp  nctype.Type
		src any
	}{
		{nctype.Byte, []int32{-128, 127}},
		{nctype.Byte, []float64{127.9, -128.9}},
		{nctype.Int64, []uint64{math.MaxInt64}},
		{nctype.UInt64, []float64{1e19}},
		{nctype.Float, []float64{math.NaN()}},
	} {
		if _, err := EncodeSlice(nil, c.tp, c.src); err != nil {
			t.Errorf("in range: %v <- %v: %v", c.tp, c.src, err)
		}
	}
	// Every value lands, the out-of-range one wrapped.
	buf, err := EncodeSlice(nil, nctype.Int, []uint64{math.MaxUint64, 7})
	if !errors.Is(err, ErrRange) || !bytes.Equal(buf, []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 7}) {
		t.Errorf("Int <- [MaxUint64 7]: % x, %v; want ff ff ff ff 00 00 00 07, ErrRange", buf, err)
	}
	if buf, _ := EncodeSlice(nil, nctype.UInt64, []float64{1e19}); binary.BigEndian.Uint64(buf) != 1e19 {
		t.Errorf("UInt64 <- 1e19: %d", binary.BigEndian.Uint64(buf))
	}
}

// TestReadRangeErrors: a read converts every value into memory and reports
// ErrRange when one did not fit the memory type, as a write does.
func TestReadRangeErrors(t *testing.T) {
	enc := func(tp nctype.Type, src any) []byte {
		t.Helper()
		buf, err := EncodeSlice(nil, tp, src)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	cases := []struct {
		tp  nctype.Type
		ext []byte
		dst any
	}{
		{nctype.Double, enc(nctype.Double, []float64{1000}), make([]int8, 1)},
		{nctype.Double, enc(nctype.Double, []float64{3e40}), make([]float32, 1)},
		{nctype.Double, enc(nctype.Double, []float64{1e30}), make([]int64, 1)},
		{nctype.Double, enc(nctype.Double, []float64{-1}), make([]uint32, 1)},
		{nctype.Float, enc(nctype.Float, []float32{1e10}), make([]int32, 1)},
		{nctype.Int, enc(nctype.Int, []int32{-1}), make([]uint8, 1)},
		{nctype.Int, enc(nctype.Int, []int32{1 << 20}), make([]int16, 1)},
		{nctype.Int64, enc(nctype.Int64, []int64{1 << 40}), make([]uint32, 1)},
		{nctype.UInt, enc(nctype.UInt, []uint32{math.MaxUint32}), make([]int32, 1)},
		{nctype.UInt64, enc(nctype.UInt64, []uint64{1 << 63}), make([]int64, 1)},
		{nctype.UShort, enc(nctype.UShort, []uint16{300}), make([]int8, 1)},
		{nctype.Short, enc(nctype.Short, []int16{-1}), make([]uint64, 1)},
		{nctype.Byte, enc(nctype.Byte, []int8{-1}), make([]uint16, 1)},
		{nctype.UByte, enc(nctype.UByte, []uint8{200}), make([]int8, 1)},
	}
	for i, c := range cases {
		if err := DecodeSlice(c.ext, c.tp, c.dst); !errors.Is(err, ErrRange) {
			t.Errorf("case %d (%T <- %v): err = %v, want ErrRange", i, c.dst, c.tp, err)
		}
	}
	// Every value lands: the one after the bad one too.
	got := make([]int8, 2)
	if err := DecodeSlice(enc(nctype.Double, []float64{1000, -5}), nctype.Double, got); !errors.Is(err, ErrRange) || got[1] != -5 {
		t.Errorf("[]int8 <- Double [1000 -5]: %v, %v; want ErrRange and -5 last", got, err)
	}
	// In range, and a NaN, convert without error.
	f32 := make([]float32, 3)
	if err := DecodeSlice(enc(nctype.Double, []float64{-math.MaxFloat32, 1.5, math.NaN()}), nctype.Double, f32); err != nil {
		t.Errorf("[]float32 <- Double in range: %v", err)
	}
	u8 := make([]uint8, 2)
	if err := DecodeSlice(enc(nctype.Double, []float64{255.5, -0.5}), nctype.Double, u8); err != nil || u8[0] != 255 || u8[1] != 0 {
		t.Errorf("[]uint8 <- Double [255.5 -0.5]: %v, %v; want [255 0], nil", u8, err)
	}
}

func TestCharTextRules(t *testing.T) {
	buf, err := EncodeSlice(nil, nctype.Char, "hello")
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("char encoding = %q", buf)
	}
	// Numbers must not convert to text or vice versa.
	if _, err := EncodeSlice(nil, nctype.Char, []int32{1}); err == nil {
		t.Fatal("numeric memory accepted for char external")
	}
	if err := DecodeSlice(buf, nctype.Char, make([]float32, 5)); err == nil {
		t.Fatal("char external decoded into float memory")
	}
}

func TestDecodeShortBuffer(t *testing.T) {
	if err := DecodeSlice([]byte{1, 2}, nctype.Int, make([]int32, 1)); err == nil {
		t.Fatal("decode from short buffer must fail")
	}
}

func TestMakeAttrScalarsAndSlices(t *testing.T) {
	a, err := newAttr("x", nctype.Double, 2.5)
	if err != nil || a.Nelems != 1 || len(a.Values) != 8 {
		t.Fatalf("scalar attr: %+v err=%v", a, err)
	}
	a, err = newAttr("y", nctype.Int, []int32{1, 2, 3})
	if err != nil || a.Nelems != 3 || len(a.Values) != 12 {
		t.Fatalf("slice attr: %+v err=%v", a, err)
	}
	a, err = newAttr("s", nctype.Char, "units")
	if err != nil || a.Nelems != 5 {
		t.Fatalf("string attr: %+v err=%v", a, err)
	}
	if _, err = newAttr("bad", nctype.Int, struct{}{}); err == nil {
		t.Fatal("newAttr accepted unsupported value")
	}
}

// Property: encode/decode round-trips exactly for matching types.
func TestQuickRoundTripFloat64(t *testing.T) {
	f := func(src []float64) bool {
		buf, err := EncodeSlice(nil, nctype.Double, src)
		if err != nil {
			return false
		}
		dst := make([]float64, len(src))
		if err := DecodeSlice(buf, nctype.Double, dst); err != nil {
			return false
		}
		for i := range src {
			if src[i] != dst[i] && !(math.IsNaN(src[i]) && math.IsNaN(dst[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRoundTripInt32(t *testing.T) {
	f := func(src []int32) bool {
		buf, err := EncodeSlice(nil, nctype.Int, src)
		if err != nil {
			return false
		}
		dst := make([]int32, len(src))
		if err := DecodeSlice(buf, nctype.Int, dst); err != nil {
			return false
		}
		return sliceEq(src, dst)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: encoded size is always nelems * type size.
func TestQuickEncodedSize(t *testing.T) {
	f := func(src []int16) bool {
		buf, err := EncodeSlice(nil, nctype.Short, src)
		return err == nil && len(buf) == 2*len(src)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: header encode/decode round-trips for arbitrary small datasets.
func TestQuickHeaderRoundTrip(t *testing.T) {
	f := func(dimLens []uint16, nvars uint8, recs uint16) bool {
		if len(dimLens) == 0 {
			dimLens = []uint16{1}
		}
		if len(dimLens) > 6 {
			dimLens = dimLens[:6]
		}
		h := &Header{Version: 2, NumRecs: int64(recs % 4)}
		for i, l := range dimLens {
			h.Dims = append(h.Dims, Dim{Name: dimName(i), Len: int64(l%64 + 1)})
		}
		nv := int(nvars%5) + 1
		for i := 0; i < nv; i++ {
			v := Var{Name: varName(i), Type: nctype.Float}
			v.DimIDs = []int{i % len(h.Dims)}
			h.Vars = append(h.Vars, v)
		}
		if err := h.ComputeLayout(1); err != nil {
			return false
		}
		got, err := Decode(h.Encode())
		return err == nil && sameHeader(got, h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func dimName(i int) string { return string(rune('a'+i%26)) + "dim" }
func varName(i int) string { return string(rune('a'+i%26)) + "var" }

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(1234)) }
