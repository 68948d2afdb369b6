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
// subarray, so caching the resulting Datatype per variable turns the repeat
// cost into a map lookup.
//
// NumRecs is deliberately NOT part of the key: FileSegments depends only on
// the variable layout (Begin, RecSize, shape) and the request geometry, not
// on how many records currently exist. Layout changes do invalidate — the
// cache is cleared when a define-mode transition recomputes the layout
// (EndDef), which also covers variable relocation.

// viewCacheMax bounds entries per dataset; beyond it the cache resets (shape
// churn this high means repeats are unlikely anyway).
const viewCacheMax = 64

// appendViewKey appends the cache key of (varid, req) to b: the varid, then
// start, count and stride, varint-packed.
func appendViewKey(b []byte, varid int, req access.Request) []byte {
	b = binary.AppendUvarint(b, uint64(varid))
	for _, v := range req.Start {
		b = binary.AppendUvarint(b, uint64(v))
	}
	for _, v := range req.Count {
		b = binary.AppendUvarint(b, uint64(v))
	}
	for _, v := range req.Stride {
		b = binary.AppendUvarint(b, uint64(v))
	}
	return b
}

// fileView returns the flattened file view for req against variable v,
// consulting the per-dataset cache. Datatypes are immutable, so sharing one
// across calls (and with the MPI-IO layer) is safe. The key is built on the
// stack and looked up as m[string(key)], which does not allocate: only
// inserting a new shape pays for its key string.
func (d *Dataset) fileView(varid int, v *cdf.Var, req access.Request) (mpitype.Datatype, error) {
	var buf [64]byte // append grows it for the rare long key
	key := appendViewKey(buf[:0], varid, req)
	if view, ok := d.views[string(key)]; ok {
		return view, nil
	}
	view, err := access.FileView(d.Hdr, v, req)
	if err != nil {
		return mpitype.Datatype{}, err
	}
	if d.views == nil || len(d.views) >= viewCacheMax {
		d.views = make(map[string]mpitype.Datatype, 8)
	}
	d.views[string(key)] = view
	return view, nil
}

// invalidateViews drops every cached view; called when the header layout
// (variable begins, record size) may have changed.
func (d *Dataset) invalidateViews() {
	d.views = nil
}
