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
// order. Its vectors are the caller's, not copies: a holder that keeps a
// request past the call that validated it copies them (core does, into
// storage its dataset owns).
type Request struct {
	Start  []int64
	Count  []int64
	Stride []int64 // nil: all ones
	// NElems is the number of array elements touched.
	NElems int64
	// LastRecord is the highest record index touched (record variables
	// only); -1 otherwise. Writers grow NumRecs to LastRecord+1.
	LastRecord int64
}

// StrideAt returns the stride of dimension i.
func (r Request) StrideAt(i int) int64 {
	if r.Stride == nil {
		return 1
	}
	return r.Stride[i]
}

// Validate checks a start/count/stride request against a variable's shape,
// in place: it copies and allocates nothing. stride may be nil (all ones).
// For record variables the record dimension is unbounded when writing=true
// and bounded by NumRecs when reading.
func Validate(h *cdf.Header, v *cdf.Var, start, count, stride []int64, writing bool) (Request, error) {
	nd := len(v.DimIDs)
	if len(start) != nd || len(count) != nd || (stride != nil && len(stride) != nd) {
		return Request{}, fmt.Errorf("%w: request rank %d/%d/%d for variable of rank %d",
			nctype.ErrInvalidArg, len(start), len(count), len(stride), nd)
	}
	req := Request{Start: start, Count: count, Stride: stride, NElems: 1, LastRecord: -1}
	isRec := h.IsRecordVar(v)
	for i := 0; i < nd; i++ {
		if start[i] < 0 || count[i] < 0 {
			return Request{}, fmt.Errorf("%w: start/count dim %d", nctype.ErrInvalidArg, i)
		}
		step := req.StrideAt(i)
		if step < 1 {
			return Request{}, fmt.Errorf("%w: stride[%d] = %d", nctype.ErrStride, i, step)
		}
		req.NElems *= count[i]
		bound := h.Dims[v.DimIDs[i]].Len
		recDim := isRec && i == 0
		if recDim {
			bound = h.NumRecs
		}
		if count[i] == 0 {
			continue
		}
		last := start[i] + (count[i]-1)*step
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

// FileSegments returns the absolute file byte extents for a validated
// request against variable v, in the element order of the caller's buffer:
// one mpitype.BoxRuns walk, in which each dimension steps over the ones
// inside it and the record dimension steps whole records, RecSize bytes (the
// interleaved layout of paper Figure 1).
func FileSegments(h *cdf.Header, v *cdf.Var, req Request) []mpitype.Segment {
	return boxRuns(h, v, req, v.Begin)
}

// boxRuns is FileSegments with the variable's first byte at origin.
func boxRuns(h *cdf.Header, v *cdf.Var, req Request, origin int64) []mpitype.Segment {
	var stack [8]mpitype.Dim
	dims := stack[:0]
	if len(v.DimIDs) > len(stack) {
		dims = make([]mpitype.Dim, 0, len(v.DimIDs))
	}
	dims = dims[:len(v.DimIDs)]
	elem := int64(v.Type.Size())
	off, step := origin, elem
	for i := len(dims) - 1; i >= 0; i-- {
		if i == 0 && h.IsRecordVar(v) {
			step = h.RecSize()
		}
		dims[i] = mpitype.Dim{Count: req.Count[i], Step: req.StrideAt(i) * step}
		off += req.Start[i] * step
		step *= h.Dims[v.DimIDs[i]].Len
	}
	return mpitype.BoxRuns(off, elem, dims)
}

// FileView wraps the request's extents into an MPI datatype suitable for an
// MPI-IO file view (displacement 0, absolute offsets, byte units). The
// extents are built once: FileSegments emits an ascending, merged list, which
// FromSegments adopts as the typemap, and a whole-request access through the
// view reads that same list (Datatype.SegmentsForRange).
func FileView(h *cdf.Header, v *cdf.Var, req Request) (mpitype.Datatype, error) {
	return view(boxRuns(h, v, req, v.Begin))
}

// VarView is FileView relative to the variable: its offsets count from
// v.Begin, so it is installed with displacement v.Begin. It depends only on
// the variable's shape, element size and (for a record variable) the record
// size, not on where the variable starts, so variables of one shape share it.
func VarView(h *cdf.Header, v *cdf.Var, req Request) (mpitype.Datatype, error) {
	return view(boxRuns(h, v, req, 0))
}

func view(segs []mpitype.Segment) (mpitype.Datatype, error) {
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
	dims := make([]mpitype.Dim, nd)
	for i, m := range imap {
		if m < 1 {
			return nil, fmt.Errorf("%w: imap entries must be positive", nctype.ErrInvalidArg)
		}
		dims[i] = mpitype.Dim{Count: count[i], Step: m}
	}
	return mpitype.BoxRuns(0, 1, dims), nil
}
