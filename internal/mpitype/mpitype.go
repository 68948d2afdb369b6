// Package mpitype implements MPI derived datatypes as flattened typemaps:
// a Datatype is a sorted list of (offset, length) segments within an extent,
// plus the MPI size/extent distinction that makes tiling work.
//
// File views in the MPI-IO layer are Datatypes whose unit is bytes; the
// PnetCDF flexible API also builds memory Datatypes whose unit is elements
// of the user's Go slice (the constructors are unit-agnostic). Subarray is
// the workhorse: PnetCDF turns every start/count/stride request into a
// subarray (or a FromSegments list) file type exactly as the paper describes
// ("we represent the data access pattern as an MPI file view ... constructed
// from the variable metadata and start[], count[], stride[], imap[]
// arguments").
package mpitype

import (
	"errors"
	"fmt"
	"sort"
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
	extent int64     // the span one instance occupies: instance i tiles at i*extent
	segs   []Segment // sorted by Off, non-overlapping, within [0, extent]
}

// Size returns the number of data units the type selects per instance.
func (d Datatype) Size() int64 { return d.size }

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
	// Constructors generate ascending segments; the sort is for FromSegments
	// callers that list blocks out of order.
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
	dims := make([]Dim, nd)
	off, step := int64(0), elem
	for i := nd - 1; i >= 0; i-- {
		if s := sizes[i]; s < 0 || subsizes[i] < 0 || starts[i] < 0 || starts[i]+subsizes[i] > s {
			return Datatype{}, fmt.Errorf("mpitype: subarray dim %d out of bounds (size %d, sub %d, start %d)",
				i, s, subsizes[i], starts[i])
		}
		dims[i] = Dim{Count: subsizes[i], Step: step}
		off += starts[i] * step
		step *= sizes[i]
	}
	return FromSegments(BoxRuns(off, elem, dims), step)
}

// Dim is one dimension of a box BoxRuns walks: Count indices, Step units
// apart.
type Dim struct{ Count, Step int64 }

// BoxRuns returns the runs of an n-dimensional box, in row-major order (the
// last dimension varies fastest): a run of run units at off + Σ idx[i] ×
// dims[i].Step for every index with 0 <= idx[i] < dims[i].Count, runs that
// abut merged. An innermost dimension whose Step equals the run is folded
// into the run before the walk — a whole trailing dimension, or a unit-stride
// one — so a box of contiguous rows costs one step per row, and the list is
// sized once, for the rows the walk visits. A box with a zero count is empty
// (nil); one of no dimensions is the one run at off.
func BoxRuns(off, run int64, dims []Dim) []Segment {
	for _, d := range dims {
		if d.Count == 0 {
			return nil
		}
	}
	last := len(dims)
	for last > 0 && dims[last-1].Step == run {
		run *= dims[last-1].Count
		last--
	}
	rows := int64(1)
	for _, d := range dims[:last] {
		rows *= d.Count
	}
	var stack [8]int64
	idx := stack[:0]
	if last > len(stack) {
		idx = make([]int64, 0, last)
	}
	idx = idx[:last]
	segs := make([]Segment, 0, rows)
	for r := int64(0); r < rows; r++ {
		segs = appendMerged(segs, Segment{Off: off, Len: run})
		for i := last - 1; i >= 0; i-- { // the next index: off moves with it
			off += dims[i].Step
			if idx[i]++; idx[i] < dims[i].Count {
				break
			}
			off -= dims[i].Count * dims[i].Step
			idx[i] = 0
		}
	}
	return segs
}

// appendMerged appends s to segs, extending the last run when s continues it.
func appendMerged(segs []Segment, s Segment) []Segment {
	if n := len(segs); n > 0 && segs[n-1].Off+segs[n-1].Len == s.Off {
		segs[n-1].Len += s.Len
		return segs
	}
	return append(segs, s)
}

// Tiled appends to dst the absolute segments of count instances of d placed
// at disp, disp+extent, disp+2*extent, ... with adjacent runs merged.
func (d Datatype) Tiled(dst []Segment, disp int64, count int64) []Segment {
	for i := int64(0); i < count; i++ {
		base := disp + i*d.extent
		for _, s := range d.segs {
			dst = appendMerged(dst, Segment{Off: base + s.Off, Len: s.Len})
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
// offset 0 — every access through a view built from absolute offsets — is
// the typemap itself (Runs), not a copy of it.
func (d Datatype) SegmentsForRange(disp, skipUnits, nUnits int64) ([]Segment, error) {
	if d.size != 0 && skipUnits == 0 && nUnits == d.size && disp == 0 {
		return d.segs, nil
	}
	return d.AppendRange(nil, disp, skipUnits, nUnits)
}

// AppendRange appends to dst the segments SegmentsForRange returns, always
// as a list of its own: a caller that hands back the list it got the time
// before allocates nothing once it is large enough. A segment that continues
// dst's last one extends it.
func (d Datatype) AppendRange(dst []Segment, disp, skipUnits, nUnits int64) ([]Segment, error) {
	if d.size == 0 {
		if nUnits == 0 {
			return dst, nil
		}
		return dst, errors.New("mpitype: reading data units through an empty type")
	}
	tileIdx := skipUnits / d.size
	skip := skipUnits % d.size
	out := dst
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
			out = appendMerged(out, Segment{Off: base + off, Len: l})
			nUnits -= l
		}
		tileIdx++
	}
	return out, nil
}
