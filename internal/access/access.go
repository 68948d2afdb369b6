// Package access turns netCDF data-access requests — a variable plus
// start/count/stride/imap vectors — into byte-exact file extents and memory
// element maps. It is the geometry shared by the serial library
// (internal/netcdf), which walks the extents directly, and the parallel
// library (internal/core), which wraps them into an MPI-IO file view; using
// one implementation for both is what makes the two libraries
// byte-compatible on disk.
package access

import (
	"fmt"

	"pnetcdf/internal/cdf"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/nctype"
)

// Request is a validated data access: which elements of a variable, in which
// order.
type Request struct {
	Start  []int64
	Count  []int64
	Stride []int64 // all 1s when the caller passed nil
	// NElems is the number of array elements touched.
	NElems int64
	// LastRecord is the highest record index touched (record variables
	// only); -1 otherwise. Writers grow NumRecs to LastRecord+1.
	LastRecord int64
}

// Validate checks a start/count/stride request against a variable's shape.
// stride may be nil (all ones). For record variables the record dimension is
// unbounded when writing=true and bounded by NumRecs when reading.
func Validate(h *cdf.Header, v *cdf.Var, start, count, stride []int64, writing bool) (Request, error) {
	nd := len(v.DimIDs)
	if len(start) != nd || len(count) != nd || (stride != nil && len(stride) != nd) {
		return Request{}, fmt.Errorf("%w: request rank %d/%d/%d for variable of rank %d",
			nctype.ErrInvalidArg, len(start), len(count), len(stride), nd)
	}
	req := Request{
		Start:      append([]int64(nil), start...),
		Count:      append([]int64(nil), count...),
		NElems:     1,
		LastRecord: -1,
	}
	if stride == nil {
		req.Stride = make([]int64, nd)
		for i := range req.Stride {
			req.Stride[i] = 1
		}
	} else {
		req.Stride = append([]int64(nil), stride...)
	}
	isRec := h.IsRecordVar(v)
	for i := 0; i < nd; i++ {
		if req.Start[i] < 0 || req.Count[i] < 0 {
			return Request{}, fmt.Errorf("%w: start/count dim %d", nctype.ErrInvalidArg, i)
		}
		if req.Stride[i] < 1 {
			return Request{}, fmt.Errorf("%w: stride[%d] = %d", nctype.ErrStride, i, req.Stride[i])
		}
		req.NElems *= req.Count[i]
		bound := h.Dims[v.DimIDs[i]].Len
		recDim := isRec && i == 0
		if recDim {
			bound = h.NumRecs
		}
		if req.Count[i] == 0 {
			continue
		}
		last := req.Start[i] + (req.Count[i]-1)*req.Stride[i]
		if recDim {
			if writing {
				req.LastRecord = last
				continue // unlimited growth on write
			}
			req.LastRecord = last
		}
		if last >= bound {
			return Request{}, fmt.Errorf("%w: dim %d access up to %d, bound %d",
				nctype.ErrEdge, i, last, bound)
		}
	}
	return req, nil
}

// appendMerge appends a segment, merging with the previous one when
// adjacent.
func appendMerge(segs []mpitype.Segment, s mpitype.Segment) []mpitype.Segment {
	if s.Len == 0 {
		return segs
	}
	if n := len(segs); n > 0 && segs[n-1].Off+segs[n-1].Len == s.Off {
		segs[n-1].Len += s.Len
		return segs
	}
	return append(segs, s)
}

// relSegments produces byte segments relative to offset 0 for a
// start/count/stride selection over an array of the given shape, in
// row-major element order (matching the order elements occupy in the
// caller's buffer).
func relSegments(shape, start, count, stride []int64, elem int64) []mpitype.Segment {
	for _, c := range count {
		if c == 0 {
			return nil
		}
	}
	// Fold trailing dimensions that are selected whole into the element: a
	// full, unit-stride dimension is contiguous with the one outside it, so
	// the walk below only iterates dimensions that actually select. A FLASH
	// block count=[80,8,8,8] of shape=[640,8,8,8] is one step, not 5120.
	nd := len(shape)
	for nd > 0 && start[nd-1] == 0 && count[nd-1] == shape[nd-1] && stride[nd-1] == 1 {
		elem *= shape[nd-1]
		nd--
	}
	if nd == 0 {
		return []mpitype.Segment{{Off: 0, Len: elem}}
	}
	dimStride := make([]int64, nd)
	dimStride[nd-1] = elem
	for i := nd - 2; i >= 0; i-- {
		dimStride[i] = dimStride[i+1] * shape[i+1]
	}
	last := nd - 1
	outer := int64(1)
	for i := 0; i < last; i++ {
		outer *= count[i]
	}
	// Sized once: the walk emits one run per row, or one per element when the
	// innermost iterated dimension is strided. After the fold that dimension
	// is partial or strided, so unit-stride rows never abut and the count is
	// exact; only a strided row ending on the array edge can merge into the
	// next and leave the capacity an upper bound.
	n := outer
	if stride[last] != 1 {
		n *= count[last]
	}
	segs := make([]mpitype.Segment, 0, n)
	idx := make([]int64, last)
	for o := int64(0); o < outer; o++ {
		base := int64(0)
		for i := 0; i < last; i++ {
			base += (start[i] + idx[i]*stride[i]) * dimStride[i]
		}
		if stride[last] == 1 {
			segs = appendMerge(segs, mpitype.Segment{
				Off: base + start[last]*elem,
				Len: count[last] * elem,
			})
		} else {
			for k := int64(0); k < count[last]; k++ {
				segs = appendMerge(segs, mpitype.Segment{
					Off: base + (start[last]+k*stride[last])*elem,
					Len: elem,
				})
			}
		}
		for i := last - 1; i >= 0; i-- {
			idx[i]++
			if idx[i] < count[i] {
				break
			}
			idx[i] = 0
		}
	}
	return segs
}

// FileSegments returns the absolute file byte extents for a validated
// request against variable v, in the element order of the caller's buffer.
// For record variables the record dimension iterates whole records at
// RecSize stride (the interleaved layout of paper Figure 1).
func FileSegments(h *cdf.Header, v *cdf.Var, req Request) []mpitype.Segment {
	elem := int64(v.Type.Size())
	if h.IsRecordVar(v) {
		innerShape := make([]int64, len(v.DimIDs)-1)
		for i := 1; i < len(v.DimIDs); i++ {
			innerShape[i-1] = h.Dims[v.DimIDs[i]].Len
		}
		inner := relSegments(innerShape, req.Start[1:], req.Count[1:], req.Stride[1:], elem)
		recSize := h.RecSize()
		segs := make([]mpitype.Segment, 0, req.Count[0]*int64(len(inner)))
		for r := int64(0); r < req.Count[0]; r++ {
			rec := req.Start[0] + r*req.Stride[0]
			base := v.Begin + rec*recSize
			for _, s := range inner {
				segs = appendMerge(segs, mpitype.Segment{Off: base + s.Off, Len: s.Len})
			}
		}
		return segs
	}
	shape := make([]int64, len(v.DimIDs))
	for i, id := range v.DimIDs {
		shape[i] = h.Dims[id].Len
	}
	segs := relSegments(shape, req.Start, req.Count, req.Stride, elem)
	for i := range segs {
		segs[i].Off += v.Begin
	}
	return segs
}

// FileView wraps the request's extents into an MPI datatype suitable for an
// MPI-IO file view (displacement 0, absolute offsets, byte units). The
// extents are built once: FileSegments emits an ascending, merged list, which
// FromSegments adopts as the typemap, and a whole-request access through the
// view reads that same list (Datatype.SegmentsForRange).
func FileView(h *cdf.Header, v *cdf.Var, req Request) (mpitype.Datatype, error) {
	segs := FileSegments(h, v, req)
	end := int64(0)
	if len(segs) > 0 {
		end = segs[len(segs)-1].Off + segs[len(segs)-1].Len
	}
	return mpitype.FromSegments(segs, end)
}

// MemSegments returns element-unit segments into the caller's buffer for a
// mapped (imap) access: netCDF's varm. imap[i] is the distance in buffer
// elements between successive indices of dimension i. A nil imap means the
// natural row-major packing (contiguous buffer).
func MemSegments(count, imap []int64) ([]mpitype.Segment, error) {
	nd := len(count)
	if imap == nil {
		n := int64(1)
		for _, c := range count {
			n *= c
		}
		return []mpitype.Segment{{Off: 0, Len: n}}, nil
	}
	if len(imap) != nd {
		return nil, fmt.Errorf("%w: imap rank %d for request rank %d", nctype.ErrInvalidArg, len(imap), nd)
	}
	if nd == 0 {
		return []mpitype.Segment{{Off: 0, Len: 1}}, nil
	}
	for _, m := range imap {
		if m < 1 {
			return nil, fmt.Errorf("%w: imap entries must be positive", nctype.ErrInvalidArg)
		}
	}
	for _, c := range count {
		if c == 0 {
			return nil, nil
		}
	}
	last := nd - 1
	outer := int64(1)
	for i := 0; i < last; i++ {
		outer *= count[i]
	}
	var segs []mpitype.Segment
	idx := make([]int64, last)
	for o := int64(0); o < outer; o++ {
		base := int64(0)
		for i := 0; i < last; i++ {
			base += idx[i] * imap[i]
		}
		if imap[last] == 1 {
			segs = appendMerge(segs, mpitype.Segment{Off: base, Len: count[last]})
		} else {
			for k := int64(0); k < count[last]; k++ {
				segs = appendMerge(segs, mpitype.Segment{Off: base + k*imap[last], Len: 1})
			}
		}
		for i := last - 1; i >= 0; i-- {
			idx[i]++
			if idx[i] < count[i] {
				break
			}
			idx[i] = 0
		}
	}
	return segs, nil
}
