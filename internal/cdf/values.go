package cdf

import "pnetcdf/internal/nctype"

// DecodeAttrValue decodes an attribute's external bytes into a typed Go
// slice ([]byte for Char).
func DecodeAttrValue(a Attr) (any, error) {
	out := NewSlice(a.Type, a.Nelems)
	if out == nil {
		return nil, nctype.ErrBadType
	}
	return out, DecodeSlice(a.Values, a.Type, out)
}

// defaultFill is netCDF's default fill value of each external type.
var defaultFill = map[nctype.Type]any{
	nctype.Byte:   []int8{nctype.FillByte},
	nctype.Char:   []byte{nctype.FillChar},
	nctype.Short:  []int16{nctype.FillShort},
	nctype.Int:    []int32{nctype.FillInt},
	nctype.Float:  []float32{nctype.FillFloat},
	nctype.Double: []float64{nctype.FillDouble},
	nctype.UByte:  []uint8{nctype.FillUByte},
	nctype.UShort: []uint16{nctype.FillUShort},
	nctype.UInt:   []uint32{nctype.FillUInt},
	nctype.Int64:  []int64{nctype.FillInt64},
	nctype.UInt64: []uint64{nctype.FillUInt64},
}

// FillBytes builds n external fill values for variable v, honoring a
// _FillValue attribute of the variable's own type when present, otherwise
// using the netCDF default fill value for the type.
func FillBytes(v *Var, n int64) []byte {
	esz := int64(v.Type.Size())
	one := make([]byte, 0, esz)
	if a, _, _, ok := v.Attrs.lookup("_FillValue"); ok && a.typ == v.Type && a.nelems >= 1 {
		one = append(one, a.values[:esz]...)
	} else if enc, err := EncodeSlice(one, v.Type, defaultFill[v.Type]); err == nil {
		one = enc
	}
	out := make([]byte, n*esz)
	for i := int64(0); i < n; i++ {
		copy(out[i*esz:], one)
	}
	return out
}
