// Package nctype defines the netCDF external data types, format constants,
// and the error vocabulary shared by the classic-format codec, the serial
// netCDF library, and the parallel (PnetCDF) library.
//
// The values mirror the netCDF classic specification so that files produced
// by this module are genuine netCDF files: external types are encoded
// big-endian, headers use the CDF-1/CDF-2/CDF-5 magic numbers, and the tag
// values for dimension/variable/attribute lists match the on-disk format.
package nctype

import "fmt"

// Type identifies a netCDF external data type. The numeric values are the
// on-disk nc_type codes from the classic file format.
type Type int32

// Classic external types (CDF-1/CDF-2). The extended types (UByte..UInt64)
// are valid only in CDF-5 files.
const (
	Byte   Type = 1  // 8-bit signed integer
	Char   Type = 2  // 8-bit character (text)
	Short  Type = 3  // 16-bit signed integer
	Int    Type = 4  // 32-bit signed integer
	Float  Type = 5  // 32-bit IEEE float
	Double Type = 6  // 64-bit IEEE float
	UByte  Type = 7  // CDF-5 only
	UShort Type = 8  // CDF-5 only
	UInt   Type = 9  // CDF-5 only
	Int64  Type = 10 // CDF-5 only
	UInt64 Type = 11 // CDF-5 only
)

// Size returns the external (on-disk) size of one value of type t in bytes,
// or 0 if t is not a valid type.
func (t Type) Size() int {
	switch t {
	case Byte, Char, UByte:
		return 1
	case Short, UShort:
		return 2
	case Int, Float, UInt:
		return 4
	case Double, Int64, UInt64:
		return 8
	}
	return 0
}

// Valid reports whether t is a defined external type under the given format
// version (1, 2, or 5).
func (t Type) Valid(version int) bool {
	if t >= Byte && t <= Double {
		return true
	}
	if version == 5 && t >= UByte && t <= UInt64 {
		return true
	}
	return false
}

// String returns the CDL name of the type, as used by ncdump.
func (t Type) String() string {
	switch t {
	case Byte:
		return "byte"
	case Char:
		return "char"
	case Short:
		return "short"
	case Int:
		return "int"
	case Float:
		return "float"
	case Double:
		return "double"
	case UByte:
		return "ubyte"
	case UShort:
		return "ushort"
	case UInt:
		return "uint"
	case Int64:
		return "int64"
	case UInt64:
		return "uint64"
	}
	return fmt.Sprintf("type(%d)", int32(t))
}

// On-disk list tags for the classic header.
const (
	TagAbsent    uint32 = 0x00 // ABSENT: zero-length list
	TagDimension uint32 = 0x0A // NC_DIMENSION
	TagVariable  uint32 = 0x0B // NC_VARIABLE
	TagAttribute uint32 = 0x0C // NC_ATTRIBUTE
)

// File format versions (the byte following the "CDF" magic).
const (
	FormatClassic int = 1 // CDF-1: 32-bit offsets
	Format64Bit   int = 2 // CDF-2: 64-bit offsets
	Format64Data  int = 5 // CDF-5: 64-bit offsets, sizes, and extended types
)

// Create/open mode flags, a subset of the netCDF C library's flags.
const (
	NoWrite     = 0x0000 // open read-only
	Write       = 0x0001 // open read-write
	Clobber     = 0x0000 // create: overwrite any existing file
	NoClobber   = 0x0004 // create: fail if the file exists
	Bit64Offset = 0x0200 // create a CDF-2 file
	Bit64Data   = 0x0020 // create a CDF-5 file
)

// Limits from the classic format.
const (
	// MaxDims is the maximum number of dimensions per file or variable.
	MaxDims = 1024
	// MaxVars is the maximum number of variables per file.
	MaxVars = 8192
	// MaxAttrs is the maximum number of attributes per variable or file.
	MaxAttrs = 8192
	// MaxNameLen is the maximum length of a dimension/variable/attribute name.
	MaxNameLen = 256
)

// UnlimitedDim is the dimension length value that marks the record dimension.
const UnlimitedDim = 0

// FillValue defaults per type, matching netCDF's NC_FILL_* values.
const (
	FillByte   int8    = -127
	FillChar   byte    = 0
	FillShort  int16   = -32767
	FillInt    int32   = -2147483647
	FillFloat  float32 = 9.9692099683868690e+36
	FillDouble float64 = 9.9692099683868690e+36
	FillUByte  uint8   = 255
	FillUShort uint16  = 65535
	FillUInt   uint32  = 4294967295
	FillInt64  int64   = -9223372036854775806
	FillUInt64 uint64  = 18446744073709551614
)
