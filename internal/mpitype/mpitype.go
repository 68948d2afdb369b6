// Package mpitype implements MPI derived datatypes as flattened typemaps:
// a Datatype is a sorted list of (offset, length) segments within an extent,
// plus the MPI size/extent distinction that makes tiling work.
//
// File views in the MPI-IO layer are Datatypes whose unit is bytes; the
// PnetCDF flexible API also builds memory Datatypes whose unit is elements
// of the user's Go slice (the constructors are unit-agnostic). Subarray is
// the workhorse: PnetCDF turns every start/count/stride request into a
// subarray (or indexed) file type exactly as the paper describes
// ("we represent the data access pattern as an MPI file view ... constructed
// from the variable metadata and start[], count[], stride[], imap[]
// arguments").
package mpitype

import (
	"errors"
	"fmt"
	"sort"

	"pnetcdf/internal/span"
)

// Segment is one contiguous run of units within a datatype's extent.
type Segment struct {
	Off int64
	Len int64
}

// Datatype is an immutable flattened typemap. The zero value is an empty
// type (size 0, extent 0).
type Datatype struct {
	size   int64
	extent int64
	segs   []Segment // sorted by Off, non-overlapping, within [0, extent]
}

// Size returns the number of data units the type selects per instance.
func (d Datatype) Size() int64 { return d.size }

// Extent returns the span one instance occupies; tiling places instance i
// at displacement i*Extent.
func (d Datatype) Extent() int64 { return d.extent }

// Segments returns a copy of the flattened typemap.
func (d Datatype) Segments() []Segment {
	return append([]Segment(nil), d.segs...)
}

// Runs returns the flattened typemap itself, not a copy, for callers that
// only walk it. A Datatype is immutable and shared freely (the view cache,
// the MPI-IO layer), so the slice must not be modified.
func (d Datatype) Runs() []Segment { return d.segs }

// NumSegments returns the number of contiguous pieces per instance.
func (d Datatype) NumSegments() int { return len(d.segs) }

// IsContiguous reports whether the type is one gap-free run starting at 0
// whose extent equals its size.
func (d Datatype) IsContiguous() bool {
	return len(d.segs) == 0 && d.size == 0 ||
		len(d.segs) == 1 && d.segs[0].Off == 0 && d.segs[0].Len == d.size && d.extent == d.size
}

// Contig returns a contiguous type of n units.
func Contig(n int64) Datatype {
	if n <= 0 {
		return Datatype{}
	}
	return Datatype{size: n, extent: n, segs: []Segment{{0, n}}}
}

// FromSegments builds a type from explicit segments. extent <
// end-of-last-segment is an error, and so are negative and overlapping
// segments.
//
// Ownership: input that already is a flattened typemap — ascending, no empty
// segment, every segment starting past the end of the one before — is adopted,
// not copied: the Datatype keeps segs itself, so the caller must not modify
// the slice afterwards (every constructor in this package, access.FileView and
// core's request fusion hand over a list they built and drop it). Any other
// input is normalized into a fresh list — empty segments dropped, sorted,
// adjacent segments merged — and the caller keeps its slice.
func FromSegments(segs []Segment, extent int64) (Datatype, error) {
	var size int64
	flat := true
	prevEnd := int64(-1)
	for _, s := range segs {
		if s.Len < 0 || s.Off < 0 {
			return Datatype{}, fmt.Errorf("mpitype: negative segment %+v", s)
		}
		if s.Len == 0 || s.Off <= prevEnd {
			flat = false
		}
		prevEnd = s.Off + s.Len
		size += s.Len
	}
	if !flat {
		var err error
		if segs, err = normalize(segs); err != nil {
			return Datatype{}, err
		}
	}
	if len(segs) == 0 {
		segs = nil
	}
	end := int64(0)
	if n := len(segs); n > 0 {
		end = segs[n-1].Off + segs[n-1].Len
	}
	if extent < end {
		return Datatype{}, fmt.Errorf("mpitype: extent %d smaller than typemap end %d", extent, end)
	}
	return Datatype{size: size, extent: extent, segs: segs}, nil
}

// normalize returns the flattened typemap of non-negative segments in any
// order: a copy with empty segments dropped, sorted by offset, adjacent
// segments merged. Overlap is an error.
func normalize(segs []Segment) ([]Segment, error) {
	out := make([]Segment, 0, len(segs))
	ordered := true
	for _, s := range segs {
		if s.Len == 0 {
			continue
		}
		if n := len(out); n > 0 && s.Off < out[n-1].Off {
			ordered = false
		}
		out = append(out, s)
	}
	// Constructors generate ascending segments; the sort is for callers that
	// list blocks out of order (Indexed, Hindexed).
	if !ordered {
		sort.Slice(out, func(i, j int) bool { return out[i].Off < out[j].Off })
	}
	n := 0
	for _, s := range out {
		if n > 0 {
			last := &out[n-1]
			if s.Off < last.Off+last.Len {
				return nil, fmt.Errorf("mpitype: overlapping segments at %d", s.Off)
			}
			if s.Off == last.Off+last.Len {
				last.Len += s.Len
				continue
			}
		}
		out[n] = s
		n++
	}
	return out[:n], nil
}

// Contiguous replicates base count times back to back, like
// MPI_Type_contiguous.
func Contiguous(count int64, base Datatype) (Datatype, error) {
	if count < 0 {
		return Datatype{}, errors.New("mpitype: negative count")
	}
	return tile(count, base.extent, 1, base)
}

// Vector replicates blocklen consecutive base instances count times with a
// stride (in base extents) between block starts, like MPI_Type_vector.
func Vector(count, blocklen, stride int64, base Datatype) (Datatype, error) {
	if count < 0 || blocklen < 0 {
		return Datatype{}, errors.New("mpitype: negative count/blocklen")
	}
	if count > 1 && stride < blocklen {
		return Datatype{}, fmt.Errorf("mpitype: vector stride %d < blocklen %d would overlap", stride, blocklen)
	}
	return tile(count, stride*base.extent, blocklen, base)
}

// Hvector is Vector with the stride given in units rather than base extents,
// like MPI_Type_create_hvector.
func Hvector(count, blocklen, strideUnits int64, base Datatype) (Datatype, error) {
	if count < 0 || blocklen < 0 {
		return Datatype{}, errors.New("mpitype: negative count/blocklen")
	}
	if count > 1 && strideUnits < blocklen*base.extent {
		return Datatype{}, errors.New("mpitype: hvector stride would overlap")
	}
	return tile(count, strideUnits, blocklen, base)
}

// tile places blocklen back-to-back base instances at displacements
// 0, blockStride, 2*blockStride, ... Adjacent runs merge as they are
// generated (via Tiled), so a vector of a contiguous base flattens to one
// segment per block — not one per element.
func tile(count, blockStride, blocklen int64, base Datatype) (Datatype, error) {
	var segs []Segment
	for i := int64(0); i < count; i++ {
		segs = base.Tiled(segs, i*blockStride, blocklen)
	}
	extent := int64(0)
	if count > 0 {
		extent = (count-1)*blockStride + blocklen*base.extent
	}
	return FromSegments(segs, extent)
}

// Indexed places blocks of blocklens[i] base instances at displacements
// displs[i] (in base extents), like MPI_Type_indexed.
func Indexed(blocklens, displs []int64, base Datatype) (Datatype, error) {
	if len(blocklens) != len(displs) {
		return Datatype{}, errors.New("mpitype: blocklens/displs length mismatch")
	}
	var segs []Segment
	extent := int64(0)
	for i := range blocklens {
		disp := displs[i] * base.extent
		segs = base.Tiled(segs, disp, blocklens[i])
		if end := disp + blocklens[i]*base.extent; end > extent {
			extent = end
		}
	}
	return FromSegments(segs, extent)
}

// Hindexed places blocks at unit displacements, like
// MPI_Type_create_hindexed.
func Hindexed(blocklens, displsUnits []int64, base Datatype) (Datatype, error) {
	if len(blocklens) != len(displsUnits) {
		return Datatype{}, errors.New("mpitype: blocklens/displs length mismatch")
	}
	var segs []Segment
	extent := int64(0)
	for i := range blocklens {
		segs = base.Tiled(segs, displsUnits[i], blocklens[i])
		if end := displsUnits[i] + blocklens[i]*base.extent; end > extent {
			extent = end
		}
	}
	return FromSegments(segs, extent)
}

// Subarray selects an n-dimensional block (starts[i], subsizes[i]) out of an
// array of shape sizes (row-major, most significant dimension first), with
// elem units per element, like MPI_Type_create_subarray. The extent is the
// full array, so tiling steps whole arrays — exactly what record-variable
// access needs.
func Subarray(sizes, subsizes, starts []int64, elem int64) (Datatype, error) {
	nd := len(sizes)
	if len(subsizes) != nd || len(starts) != nd {
		return Datatype{}, errors.New("mpitype: subarray rank mismatch")
	}
	if elem <= 0 {
		return Datatype{}, errors.New("mpitype: subarray elem size must be positive")
	}
	total := elem
	for i, s := range sizes {
		if s < 0 || subsizes[i] < 0 || starts[i] < 0 || starts[i]+subsizes[i] > s {
			return Datatype{}, fmt.Errorf("mpitype: subarray dim %d out of bounds (size %d, sub %d, start %d)",
				i, s, subsizes[i], starts[i])
		}
		total *= s
	}
	for _, ss := range subsizes {
		if ss == 0 {
			return Datatype{size: 0, extent: total}, nil
		}
	}
	if nd == 0 {
		return Datatype{size: elem, extent: elem, segs: []Segment{{0, elem}}}, nil
	}
	// Collapse trailing full dimensions into the contiguous run.
	run := elem
	last := nd - 1
	for last >= 0 && subsizes[last] == sizes[last] && starts[last] == 0 {
		run *= sizes[last]
		last--
	}
	if last < 0 {
		// Whole array.
		return Datatype{size: total, extent: total, segs: []Segment{{0, total}}}, nil
	}
	run *= subsizes[last]
	// Strides of each dimension in units.
	strides := make([]int64, nd)
	strides[nd-1] = elem
	for i := nd - 2; i >= 0; i-- {
		strides[i] = strides[i+1] * sizes[i+1]
	}
	// Iterate over the outer dims [0, last); the run covers dim `last`'s
	// subsize and everything inside.
	nRows := int64(1)
	for i := 0; i < last; i++ {
		nRows *= subsizes[i]
	}
	segs := make([]Segment, 0, nRows)
	idx := make([]int64, last)
	for r := int64(0); r < nRows; r++ {
		off := starts[last] * strides[last]
		for i := 0; i < last; i++ {
			off += (starts[i] + idx[i]) * strides[i]
		}
		segs = append(segs, Segment{Off: off, Len: run})
		for i := last - 1; i >= 0; i-- {
			idx[i]++
			if idx[i] < subsizes[i] {
				break
			}
			idx[i] = 0
		}
	}
	return FromSegments(segs, total)
}

// Resized returns d with a new extent, like MPI_Type_create_resized with
// lb = 0. The new extent may exceed or trail inside the typemap end only if
// it still covers all segments.
func Resized(d Datatype, extent int64) (Datatype, error) {
	return FromSegments(d.segs, extent)
}

// Tiled appends to dst the absolute segments of count instances of d placed
// at disp, disp+Extent, disp+2*Extent, ... with adjacent runs merged.
func (d Datatype) Tiled(dst []Segment, disp int64, count int64) []Segment {
	for i := int64(0); i < count; i++ {
		base := disp + i*d.extent
		for _, s := range d.segs {
			abs := Segment{Off: base + s.Off, Len: s.Len}
			if n := len(dst); n > 0 && dst[n-1].Off+dst[n-1].Len == abs.Off {
				dst[n-1].Len += abs.Len
			} else {
				dst = append(dst, abs)
			}
		}
	}
	return dst
}

// SegmentsForRange walks the tiling of d starting at displacement disp,
// skips the first skipUnits data units, and returns the absolute segments
// covering the next nUnits data units. This is how a file view plus a file
// pointer offset turns into I/O extents.
//
// The result is read-only: a range that is exactly one instance placed at
// offset 0 — every access through a view built from absolute offsets, which
// is what the libraries above install — is the typemap itself (Runs), not a
// copy of it.
func (d Datatype) SegmentsForRange(disp, skipUnits, nUnits int64) ([]Segment, error) {
	if d.size == 0 {
		if nUnits == 0 {
			return nil, nil
		}
		return nil, errors.New("mpitype: reading data units through an empty type")
	}
	tileIdx := skipUnits / d.size
	skip := skipUnits % d.size
	if skip == 0 && nUnits == d.size && disp+tileIdx*d.extent == 0 {
		return d.segs, nil
	}
	var out []Segment
	for nUnits > 0 {
		base := disp + tileIdx*d.extent
		for _, s := range d.segs {
			if nUnits == 0 {
				break
			}
			off, l := s.Off, s.Len
			if skip > 0 {
				if skip >= l {
					skip -= l
					continue
				}
				off += skip
				l -= skip
				skip = 0
			}
			if l > nUnits {
				l = nUnits
			}
			abs := Segment{Off: base + off, Len: l}
			if n := len(out); n > 0 && out[n-1].Off+out[n-1].Len == abs.Off {
				out[n-1].Len += abs.Len
			} else {
				out = append(out, abs)
			}
			nUnits -= l
		}
		tileIdx++
	}
	return out, nil
}

// SegmentsForRangeSpan is SegmentsForRange wrapped in a "flatten" span on
// rec (nil = no recording): the view-resolve step of the collective
// pipeline, with the span's byte count carrying the number of file extents
// the flattening produced.
func (d Datatype) SegmentsForRangeSpan(disp, skipUnits, nUnits int64, rec *span.Recorder) ([]Segment, error) {
	if rec == nil {
		return d.SegmentsForRange(disp, skipUnits, nUnits)
	}
	sp := rec.Begin(span.Flatten)
	segs, err := d.SegmentsForRange(disp, skipUnits, nUnits)
	sp.SetBytes(int64(len(segs)))
	sp.End()
	return segs, err
}
