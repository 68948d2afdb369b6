package core

import (
	"encoding/binary"

	"pnetcdf/internal/access"
	"pnetcdf/internal/cdf"
	"pnetcdf/internal/mpitype"
)

// View cache: every put/get flattens its (start, count, stride) request into
// an MPI-IO file view, and applications overwhelmingly repeat the same
// access shape (a FLASH checkpoint writes 24 variables with the identical
// geometry every step). Flattening a strided request walks the full
// subarray, so caching the resulting Datatype turns the repeat cost into a
// map lookup.
//
// A cached view is relative to its variable (access.VarView): its offsets
// count from the variable's begin, and it is installed at displacement
// v.Begin. It depends only on the variable's shape, element size and — for
// a record variable — the record size, plus the request's start, count and
// stride, and that is the key: variables of one shape share one view, so
// the 24 FLASH unknowns flatten once per handle. NumRecs is deliberately not
// part of it: the extents do not depend on how many records exist. Nothing
// a define mode changes can make an entry stale — a relocated variable keeps
// its shape, and a new record variable changes the record size, which is in
// the key — so the cache is never cleared.

// viewCacheMax bounds entries per dataset; beyond it the cache resets (shape
// churn this high means repeats are unlikely anyway).
const viewCacheMax = 64

// appendViewKey appends the cache key of req against v to b: the variable's
// rank and dimension lengths, its element size and the header's record size
// recSize (0 for a fixed-size variable), then start, count and stride (ones
// when nil), varint-packed.
func appendViewKey(b []byte, h *cdf.Header, v *cdf.Var, recSize int64, req access.Request) []byte {
	b = binary.AppendUvarint(b, uint64(len(v.DimIDs)))
	for _, id := range v.DimIDs {
		b = binary.AppendUvarint(b, uint64(h.Dims[id].Len))
	}
	b = binary.AppendUvarint(b, uint64(v.Type.Size()))
	rec := int64(0)
	if h.IsRecordVar(v) {
		rec = recSize
	}
	b = binary.AppendUvarint(b, uint64(rec))
	for _, x := range req.Start {
		b = binary.AppendUvarint(b, uint64(x))
	}
	for _, x := range req.Count {
		b = binary.AppendUvarint(b, uint64(x))
	}
	for i := range req.Start {
		b = binary.AppendUvarint(b, uint64(req.StrideAt(i)))
	}
	return b
}

// fileView returns the flattened view of req relative to variable v,
// consulting the per-dataset cache; it is installed at displacement v.Begin.
// Datatypes are immutable, so sharing one across calls, variables and the
// MPI-IO layer is safe. The key is built on the stack and looked up as
// m[string(key)], which does not allocate: only inserting a new shape pays
// for its key string.
func (d *Dataset) fileView(v *cdf.Var, req access.Request) (mpitype.Datatype, error) {
	var buf [64]byte // append grows it for the rare long key
	key := appendViewKey(buf[:0], d.Hdr, v, d.recSize, req)
	if view, ok := d.views[string(key)]; ok {
		return view, nil
	}
	view, err := access.VarView(d.Hdr, v, req)
	if err != nil {
		return mpitype.Datatype{}, err
	}
	if d.views == nil || len(d.views) >= viewCacheMax {
		d.views = make(map[string]mpitype.Datatype, 8)
	}
	d.views[string(key)] = view
	return view, nil
}
