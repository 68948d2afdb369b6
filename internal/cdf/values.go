package cdf

import "pnetcdf/internal/nctype"

// DecodeAttrValue decodes an attribute's external bytes into a typed Go
// slice ([]byte for Char).
func DecodeAttrValue(a Attr) (any, error) {
	n := int(a.Nelems)
	switch a.Type {
	case nctype.Char:
		return append([]byte(nil), a.Values...), nil
	case nctype.Byte:
		out := make([]int8, n)
		return out, DecodeSlice(a.Values, a.Type, out)
	case nctype.Short:
		out := make([]int16, n)
		return out, DecodeSlice(a.Values, a.Type, out)
	case nctype.Int:
		out := make([]int32, n)
		return out, DecodeSlice(a.Values, a.Type, out)
	case nctype.Float:
		out := make([]float32, n)
		return out, DecodeSlice(a.Values, a.Type, out)
	case nctype.Double:
		out := make([]float64, n)
		return out, DecodeSlice(a.Values, a.Type, out)
	case nctype.UByte:
		out := make([]uint8, n)
		return out, DecodeSlice(a.Values, a.Type, out)
	case nctype.UShort:
		out := make([]uint16, n)
		return out, DecodeSlice(a.Values, a.Type, out)
	case nctype.UInt:
		out := make([]uint32, n)
		return out, DecodeSlice(a.Values, a.Type, out)
	case nctype.Int64:
		out := make([]int64, n)
		return out, DecodeSlice(a.Values, a.Type, out)
	case nctype.UInt64:
		out := make([]uint64, n)
		return out, DecodeSlice(a.Values, a.Type, out)
	}
	return nil, nctype.ErrBadType
}

// FillBytes builds n external fill values for variable v, honoring a
// _FillValue attribute of the variable's own type when present, otherwise
// using the netCDF default fill value for the type.
func FillBytes(v *Var, n int64) []byte {
	esz := int64(v.Type.Size())
	one := make([]byte, esz)
	if a, _, _, ok := v.Attrs.lookup("_FillValue"); ok && a.typ == v.Type && a.nelems >= 1 {
		copy(one, a.values[:esz])
	} else {
		var enc []byte
		var err error
		switch v.Type {
		case nctype.Byte:
			enc, err = EncodeSlice(nil, v.Type, []int8{nctype.FillByte})
		case nctype.Char:
			enc = []byte{nctype.FillChar}
		case nctype.Short:
			enc, err = EncodeSlice(nil, v.Type, []int16{nctype.FillShort})
		case nctype.Int:
			enc, err = EncodeSlice(nil, v.Type, []int32{nctype.FillInt})
		case nctype.Float:
			enc, err = EncodeSlice(nil, v.Type, []float32{nctype.FillFloat})
		case nctype.Double:
			enc, err = EncodeSlice(nil, v.Type, []float64{nctype.FillDouble})
		default:
			enc = make([]byte, esz)
		}
		if err == nil && int64(len(enc)) == esz {
			copy(one, enc)
		}
	}
	out := make([]byte, n*esz)
	for i := int64(0); i < n; i++ {
		copy(out[i*esz:], one)
	}
	return out
}
