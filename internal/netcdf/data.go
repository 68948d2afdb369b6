package netcdf

import (
	"fmt"

	"pnetcdf/internal/access"
	"pnetcdf/internal/bufpool"
	"pnetcdf/internal/cdf"
	"pnetcdf/internal/nctype"
)

// --- Buffer plumbing shared with the parallel library ---

// SliceHead returns the first n elements of any supported slice type.
// A nil buffer is accepted for zero-element requests (idle participants in
// collective calls).
func SliceHead(data any, n int64) (any, error) {
	if n == 0 && data == nil {
		return []byte{}, nil
	}
	if cdf.SliceLen(data) < int(n) {
		return nil, fmt.Errorf("%w: need %d elements, buffer has %d",
			nctype.ErrCountMismatch, n, cdf.SliceLen(data))
	}
	switch s := data.(type) {
	case []int8:
		return s[:n], nil
	case []int16:
		return s[:n], nil
	case []int32:
		return s[:n], nil
	case []int64:
		return s[:n], nil
	case []uint8:
		return s[:n], nil
	case []uint16:
		return s[:n], nil
	case []uint32:
		return s[:n], nil
	case []uint64:
		return s[:n], nil
	case []float32:
		return s[:n], nil
	case []float64:
		return s[:n], nil
	case string:
		return s[:n], nil
	}
	return nil, fmt.Errorf("%w: %T", nctype.ErrTypeMismatch, data)
}

// MakeLike allocates a new slice of the same element type as data with n
// elements.
func MakeLike(data any, n int64) (any, error) {
	switch data.(type) {
	case []int8:
		return make([]int8, n), nil
	case []int16:
		return make([]int16, n), nil
	case []int32:
		return make([]int32, n), nil
	case []int64:
		return make([]int64, n), nil
	case []uint8:
		return make([]uint8, n), nil
	case []uint16:
		return make([]uint16, n), nil
	case []uint32:
		return make([]uint32, n), nil
	case []uint64:
		return make([]uint64, n), nil
	case []float32:
		return make([]float32, n), nil
	case []float64:
		return make([]float64, n), nil
	}
	return nil, fmt.Errorf("%w: %T", nctype.ErrTypeMismatch, data)
}

// --- Data access functions (category 5) ---

// PutVara writes a whole subarray: the (start, count) access method.
func (d *Dataset) PutVara(varid int, start, count []int64, data any) error {
	return d.put(varid, start, count, nil, nil, data)
}

// GetVara reads a whole subarray into data.
func (d *Dataset) GetVara(varid int, start, count []int64, data any) error {
	return d.get(varid, start, count, nil, nil, data)
}

// PutVars writes a strided subarray.
func (d *Dataset) PutVars(varid int, start, count, stride []int64, data any) error {
	return d.put(varid, start, count, stride, nil, data)
}

// GetVars reads a strided subarray.
func (d *Dataset) GetVars(varid int, start, count, stride []int64, data any) error {
	return d.get(varid, start, count, stride, nil, data)
}

// PutVarm writes a mapped strided subarray; imap gives the memory distance
// (in elements) between successive indices of each dimension.
func (d *Dataset) PutVarm(varid int, start, count, stride, imap []int64, data any) error {
	return d.put(varid, start, count, stride, imap, data)
}

// GetVarm reads a mapped strided subarray.
func (d *Dataset) GetVarm(varid int, start, count, stride, imap []int64, data any) error {
	return d.get(varid, start, count, stride, imap, data)
}

// PutVar1 writes a single element.
func (d *Dataset) PutVar1(varid int, index []int64, data any) error {
	return d.put(varid, index, cdf.OnesLike(index), nil, nil, data)
}

// GetVar1 reads a single element.
func (d *Dataset) GetVar1(varid int, index []int64, data any) error {
	return d.get(varid, index, cdf.OnesLike(index), nil, nil, data)
}

// PutVar writes the entire variable (all current records for record
// variables).
func (d *Dataset) PutVar(varid int, data any) error {
	start, count, err := d.Hdr.WholeVar(varid, data)
	if err != nil {
		return err
	}
	return d.put(varid, start, count, nil, nil, data)
}

// GetVar reads the entire variable.
func (d *Dataset) GetVar(varid int, data any) error {
	start, count, err := d.Hdr.WholeVar(varid, data)
	if err != nil {
		return err
	}
	return d.get(varid, start, count, nil, nil, data)
}

func (d *Dataset) put(varid int, start, count, stride, imap []int64, data any) error {
	if err := d.Mode.CheckData(); err != nil {
		return err
	}
	if d.Mode.ReadOnly {
		return nctype.ErrPerm
	}
	v, err := d.Hdr.VarByID(varid)
	if err != nil {
		return err
	}
	req, err := access.Validate(d.Hdr, v, start, count, stride, true)
	if err != nil {
		return err
	}
	memsegs, err := access.MemSegments(req.Count, imap)
	if err != nil {
		return err
	}
	// Pack straight from user memory into a pooled external buffer; strided
	// (imap) memory converts run-length over the flattened typemap.
	ext := bufpool.GetDirty(int(req.NElems) * v.Type.Size())[:0]
	defer func() { bufpool.Put(ext) }()
	var encErr error
	if imap == nil {
		var linear any
		linear, err = SliceHead(data, req.NElems)
		if err != nil {
			return err
		}
		ext, encErr = cdf.EncodeSlice(ext, v.Type, linear)
	} else {
		ext, encErr = cdf.EncodeSegs(ext, v.Type, data, memsegs)
	}
	if encErr != nil && encErr != cdf.ErrRange {
		return encErr
	}
	// Grow records first (with fill if enabled) so concurrent record
	// variables keep a consistent record count.
	if req.LastRecord >= d.Hdr.NumRecs {
		if err := d.growRecords(req.LastRecord + 1); err != nil {
			return err
		}
	}
	segs := access.FileSegments(d.Hdr, v, req)
	pos := int64(0)
	for _, s := range segs {
		if err := d.cache.WriteAt(ext[pos:pos+s.Len], s.Off); err != nil {
			return err
		}
		pos += s.Len
	}
	return encErr // nil or ErrRange, after the data is written (netCDF style)
}

func (d *Dataset) get(varid int, start, count, stride, imap []int64, data any) error {
	if err := d.Mode.CheckData(); err != nil {
		return err
	}
	v, err := d.Hdr.VarByID(varid)
	if err != nil {
		return err
	}
	req, err := access.Validate(d.Hdr, v, start, count, stride, false)
	if err != nil {
		return err
	}
	segs := access.FileSegments(d.Hdr, v, req)
	// Pooled and dirty: the segment reads fill every byte.
	ext := bufpool.GetDirty(int(req.NElems) * v.Type.Size())
	defer bufpool.Put(ext)
	pos := int64(0)
	for _, s := range segs {
		if err := d.cache.ReadAt(ext[pos:pos+s.Len], s.Off); err != nil {
			return err
		}
		pos += s.Len
	}
	if imap == nil {
		linear, err := SliceHead(data, req.NElems)
		if err != nil {
			return err
		}
		return cdf.DecodeSlice(ext, v.Type, linear)
	}
	memsegs, err := access.MemSegments(req.Count, imap)
	if err != nil {
		return err
	}
	return cdf.DecodeSegs(ext, v.Type, memsegs, data)
}

// growRecords extends NumRecs to n, prefilling the new records when fill
// mode is on.
func (d *Dataset) growRecords(n int64) error {
	from := d.Hdr.NumRecs
	d.Hdr.NumRecs = n
	if d.fill != Fill {
		return nil
	}
	for i := range d.Hdr.Vars {
		v := &d.Hdr.Vars[i]
		if !d.Hdr.IsRecordVar(v) {
			continue
		}
		fillBuf := cdf.FillBytes(v, d.Hdr.VarSlotSize(v)/int64(v.Type.Size()))
		for rec := from; rec < n; rec++ {
			if err := d.cache.WriteAt(fillBuf, d.Hdr.RecordOffset(v, rec)); err != nil {
				return err
			}
		}
	}
	return nil
}

// fillFixedVars writes fill values into every fixed variable (EndDef with
// fill mode on). Only variables new since the last define mode are filled.
func (d *Dataset) fillFixedVars() error {
	for i := range d.Hdr.Vars {
		v := &d.Hdr.Vars[i]
		if d.Hdr.IsRecordVar(v) {
			continue
		}
		if d.prevVars != nil && d.prevVars[v.Name] {
			continue
		}
		n := v.VSize / int64(v.Type.Size())
		const chunkElems = 64 << 10
		fillBuf := cdf.FillBytes(v, min64(n, chunkElems))
		off := v.Begin
		for n > 0 {
			k := min64(n, chunkElems)
			if err := d.cache.WriteAt(fillBuf[:k*int64(v.Type.Size())], off); err != nil {
				return err
			}
			off += k * int64(v.Type.Size())
			n -= k
		}
	}
	return nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
