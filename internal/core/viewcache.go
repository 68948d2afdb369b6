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

type viewKey struct {
	varid int
	geom  string // start/count/stride, varint-packed
}

func geomKey(req access.Request) string {
	b := make([]byte, 0, 64) // constant, so it stays on the stack; append grows it for the rare long key
	for _, v := range req.Start {
		b = binary.AppendUvarint(b, uint64(v))
	}
	for _, v := range req.Count {
		b = binary.AppendUvarint(b, uint64(v))
	}
	for _, v := range req.Stride {
		b = binary.AppendUvarint(b, uint64(v))
	}
	return string(b)
}

// fileView returns the flattened file view for req against variable v,
// consulting the per-dataset cache. Datatypes are immutable, so sharing one
// across calls (and with the MPI-IO layer) is safe.
func (d *Dataset) fileView(varid int, v *cdf.Var, req access.Request) (mpitype.Datatype, error) {
	key := viewKey{varid: varid, geom: geomKey(req)}
	if view, ok := d.views[key]; ok {
		return view, nil
	}
	view, err := access.FileView(d.hdr, v, req)
	if err != nil {
		return mpitype.Datatype{}, err
	}
	if d.views == nil || len(d.views) >= viewCacheMax {
		d.views = make(map[viewKey]mpitype.Datatype, 8)
	}
	d.views[key] = view
	return view, nil
}

// invalidateViews drops every cached view; called when the header layout
// (variable begins, record size) may have changed.
func (d *Dataset) invalidateViews() {
	d.views = nil
}
