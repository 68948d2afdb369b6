package nctype

import "testing"

func TestTypeSizes(t *testing.T) {
	want := map[Type]int{
		Byte: 1, Char: 1, UByte: 1,
		Short: 2, UShort: 2,
		Int: 4, Float: 4, UInt: 4,
		Double: 8, Int64: 8, UInt64: 8,
		Invalid: 0, Type(99): 0,
	}
	for typ, n := range want {
		if typ.Size() != n {
			t.Errorf("%v.Size() = %d, want %d", typ, typ.Size(), n)
		}
	}
}

func TestTypeValidityByVersion(t *testing.T) {
	classicOnly := []Type{Byte, Char, Short, Int, Float, Double}
	extended := []Type{UByte, UShort, UInt, Int64, UInt64}
	for _, v := range []int{1, 2, 5} {
		for _, typ := range classicOnly {
			if !typ.Valid(v) {
				t.Errorf("%v invalid in CDF-%d", typ, v)
			}
		}
	}
	for _, typ := range extended {
		if typ.Valid(1) || typ.Valid(2) {
			t.Errorf("%v valid in classic formats", typ)
		}
		if !typ.Valid(5) {
			t.Errorf("%v invalid in CDF-5", typ)
		}
	}
	if Invalid.Valid(1) || Type(42).Valid(5) {
		t.Error("bogus types accepted")
	}
}

func TestTypeStrings(t *testing.T) {
	cases := map[Type]string{
		Byte: "byte", Char: "char", Short: "short", Int: "int",
		Float: "float", Double: "double", UByte: "ubyte",
		UShort: "ushort", UInt: "uint", Int64: "int64", UInt64: "uint64",
	}
	for typ, s := range cases {
		if typ.String() != s {
			t.Errorf("%d.String() = %q, want %q", int32(typ), typ.String(), s)
		}
	}
	if Type(77).String() != "type(77)" {
		t.Errorf("unknown type string = %q", Type(77).String())
	}
}

func TestOnDiskConstants(t *testing.T) {
	// These values are the file format; they must never drift.
	if TagDimension != 0x0A || TagVariable != 0x0B || TagAttribute != 0x0C {
		t.Fatal("list tag constants drifted from the classic format")
	}
	if Byte != 1 || Char != 2 || Short != 3 || Int != 4 || Float != 5 || Double != 6 {
		t.Fatal("nc_type codes drifted from the classic format")
	}
	if UByte != 7 || UShort != 8 || UInt != 9 || Int64 != 10 || UInt64 != 11 {
		t.Fatal("CDF-5 nc_type codes drifted")
	}
}

func TestErrorsDistinct(t *testing.T) {
	errs := []error{
		ErrBadID, ErrExists, ErrInDefine, ErrNotInDefine, ErrInvalidArg,
		ErrPerm, ErrNotVar, ErrNotDim, ErrNotAtt, ErrBadName, ErrBadType,
		ErrBadDim, ErrUnlimPos, ErrMaxDims, ErrMaxVars, ErrMaxAttrs, ErrNameInUse, ErrMultiUnlimited,
		ErrEdge, ErrStride, ErrNotNC, ErrVersion, ErrVarSize, ErrNoRecVars,
		ErrClosed, ErrCountMismatch, ErrTypeMismatch, ErrConsistency,
		ErrIndepMode, ErrCollMode, ErrNullComm,
	}
	seen := map[string]bool{}
	for _, e := range errs {
		if e == nil || e.Error() == "" {
			t.Fatal("nil or empty error in vocabulary")
		}
		if seen[e.Error()] {
			t.Fatalf("duplicate error message %q", e.Error())
		}
		seen[e.Error()] = true
	}
}
