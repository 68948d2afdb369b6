package core

import (
	"cmp"
	"slices"
	"strings"

	"pnetcdf/internal/access"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/pfs"
)

// Open-time variable prefetch: the PnetCDF-level hint the paper sketches in
// §4.1 — "given a hint indicating that only a certain small set of variables
// were going to be read, an aggressive PnetCDF implementation might initiate
// a read of those variables at open time so that the values were available
// locally at read time. For applications that pull a small amount of data
// from a large number of separate netCDF files, this type of optimization
// could be a big win."
//
// The hint is nc_prefetch_vars, a comma-separated list of variable names.
// At Open, the root reads every named fixed-size variable in one request — a
// vectored read over their extents in begin order — and broadcasts the
// images in one message; every rank cuts its copies out of that one buffer,
// and subsequent reads of those variables are served from the local copy
// with no file I/O at all. Writing to a prefetched variable invalidates the
// writer's copy. Since the copies share one buffer, an invalidated copy's
// memory is freed only with the last of them: a rank holds every hinted
// variable's bytes for as long as it holds any. The hint asserts that the
// named variables are effectively read-only while the file is open
// (independent writes by one process do not invalidate other processes'
// copies — the usual relaxed-consistency contract of netCDF hints).

const prefetchHint = "nc_prefetch_vars"

// memcpyBytesPerSec prices cache-served reads (virtual time).
const memcpyBytesPerSec = 3e9

// prefetch loads the hinted variables after the header is available.
// Collective (called from Open on every rank).
func (d *Dataset) prefetch(info *mpi.Info) error {
	spec, ok := info.Get(prefetchHint)
	if !ok || spec == "" {
		return nil
	}
	var ids []int
	for _, name := range strings.Split(spec, ",") {
		varid := d.Hdr.FindVar(strings.TrimSpace(name))
		if varid < 0 {
			continue // advisory: unknown names are ignored
		}
		if d.Hdr.IsRecordVar(&d.Hdr.Vars[varid]) {
			continue // record variables grow; not cached
		}
		ids = append(ids, varid)
	}
	if len(ids) == 0 {
		return nil
	}
	// In begin order, each variable once: the extents of one request.
	slices.SortFunc(ids, func(a, b int) int {
		return cmp.Or(cmp.Compare(d.Hdr.Vars[a].Begin, d.Hdr.Vars[b].Begin), cmp.Compare(a, b))
	})
	ids = slices.Compact(ids)
	segs := make([]pfs.Segment, len(ids))
	var total int64
	for i, varid := range ids {
		v := &d.Hdr.Vars[varid]
		segs[i] = pfs.Segment{Off: v.Begin, Len: v.VSize}
		total += v.VSize
	}
	// The root reads every image before anything is broadcast, and its
	// outcome is agreed: a read that fails is an error on every rank, not a
	// root that returns while the others wait for its broadcast.
	var imgs []byte
	var rerr error
	if d.comm.Rank() == 0 {
		imgs = make([]byte, total)
		rerr = d.f.ReadRawV(segs, imgs)
	}
	if err := d.comm.AgreeError(rerr); err != nil {
		return err
	}
	imgs = d.comm.BcastOwned(0, imgs)
	d.cache = make(map[int][]byte, len(ids))
	for i, varid := range ids {
		n := segs[i].Len
		d.cache[varid], imgs = imgs[:n:n], imgs[n:]
	}
	return nil
}

// cachedRead serves a read op from the variable's prefetched copy: the
// image's extents drain straight into the op's codec c, as a file read's
// replies would, and the first conversion error comes back.
func (d *Dataset) cachedRead(op *pendingOp, c *memCodec) error {
	img := d.cache[op.varid]
	c.reset(op)
	pos := int64(0)
	for _, s := range access.FileSegments(d.Hdr, op.v, op.req) {
		rel := s.Off - op.v.Begin
		c.Drain(pos, img[rel:rel+s.Len])
		pos += s.Len
	}
	d.comm.Proc().Advance(float64(pos) / memcpyBytesPerSec)
	return c.release()
}

// invalidate drops a variable's prefetched copy after a write.
func (d *Dataset) invalidate(varid int) { delete(d.cache, varid) }

// PrefetchedVars reports which variable IDs currently have local copies
// (diagnostic).
func (d *Dataset) PrefetchedVars() []int {
	var ids []int
	for id := range d.cache {
		ids = append(ids, id)
	}
	return ids
}
