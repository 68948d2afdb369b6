package mpitype

import "fmt"

// Pack gathers the units selected by count instances of d (tiled from offset
// 0 of src) into a contiguous dst buffer, like MPI_Pack. Units are bytes
// here. dst must hold count*d.Size() bytes; src must span count*d.Extent().
func Pack(src []byte, d Datatype, count int64, dst []byte) error {
	need := count * d.size
	if int64(len(dst)) < need {
		return fmt.Errorf("mpitype: pack dst %d < %d", len(dst), need)
	}
	pos := int64(0)
	for i := int64(0); i < count; i++ {
		base := i * d.extent
		for _, s := range d.segs {
			copy(dst[pos:pos+s.Len], src[base+s.Off:base+s.Off+s.Len])
			pos += s.Len
		}
	}
	return nil
}

// Unpack scatters a contiguous src buffer into the units selected by count
// instances of d within dst, like MPI_Unpack.
func Unpack(src []byte, d Datatype, count int64, dst []byte) error {
	need := count * d.size
	if int64(len(src)) < need {
		return fmt.Errorf("mpitype: unpack src %d < %d", len(src), need)
	}
	pos := int64(0)
	for i := int64(0); i < count; i++ {
		base := i * d.extent
		for _, s := range d.segs {
			copy(dst[base+s.Off:base+s.Off+s.Len], src[pos:pos+s.Len])
			pos += s.Len
		}
	}
	return nil
}
