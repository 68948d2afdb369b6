package mpiio

import (
	"pnetcdf/internal/bufpool"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/pfs"
	"pnetcdf/internal/span"
)

// ReadAtInto reads n view-data bytes at view offset off independently (no
// coordination with other ranks) and hands them to dst. Noncontiguous views
// use data sieving when enabled: instead of one small read per
// hole-separated piece, whole covering windows are read once and each
// wanted piece drained from the window into dst — ROMIO's romio_ds_read
// strategy. Otherwise the access is one request into one pooled buffer of n
// bytes. Errors are returned (pfs has resumed transient faults already).
// The romio_cb_read = false
// fallback of ReadAtAllInto comes here too.
func (f *File) ReadAtInto(off, n int64, dst Sink) error {
	if f.closed {
		return ErrClosed
	}
	sp := f.sp.Begin(span.IndepRead)
	defer sp.End()
	sp.SetBytes(n)
	segs, err := f.viewSegments(off, n)
	if err != nil {
		return err
	}
	t0 := f.comm.Clock()
	if len(segs) <= 1 || !f.hints.DSRead {
		buf := bufpool.GetDirty(int(n))
		defer bufpool.Put(buf)
		if err := f.read(segs, buf); err != nil {
			return err
		}
		dst.Drain(0, buf)
	} else if err := sieve(segs, f.hints.IndRdBufferSize, func(run []pfs.Segment, pos int64) error {
		return f.readWindow(run, pos, dst)
	}); err != nil {
		return err
	}
	f.recordAccess(iostat.IOIndepReadCalls, iostat.IOBytesRead,
		iostat.IOReadExtents, iostat.IOReadTimeNs, segs, n, t0)
	return nil
}

// WriteAtFrom writes the n view-data bytes src supplies at view offset off
// independently. Noncontiguous views use data sieving when enabled: each
// covering window is read, filled from src in memory, and written back
// under the file's read-modify-write lock — ROMIO's romio_ds_write
// strategy. Otherwise src fills one pooled buffer of n bytes, written in one
// request (see ReadAtInto). Either way each request is a write behind
// (behind.go).
func (f *File) WriteAtFrom(off, n int64, src Source) error {
	if f.closed {
		return ErrClosed
	}
	if f.amode&ModeRdOnly != 0 {
		return ErrReadOnly
	}
	sp := f.sp.Begin(span.IndepWrite)
	defer sp.End()
	sp.SetBytes(n)
	segs, err := f.viewSegments(off, n)
	if err != nil {
		return err
	}
	t0 := f.comm.Clock()
	if len(segs) <= 1 || !f.hints.DSWrite {
		buf := bufpool.GetDirty(int(n))
		defer bufpool.Put(buf)
		src.Fill(buf, 0)
		if _, err := f.writeBehind(segs, [][]byte{buf}, n, -1); err != nil {
			return err
		}
	} else if err := sieve(segs, f.hints.IndWrBufferSize, func(run []pfs.Segment, pos int64) error {
		return f.writeWindow(run, pos, src)
	}); err != nil {
		return err
	}
	f.recordAccess(iostat.IOIndepWriteCalls, iostat.IOBytesWritten,
		iostat.IOWriteExtents, iostat.IOWriteTimeNs, segs, n, t0)
	return nil
}

// sieve walks segs in data-sieving windows: each is the longest run of
// segments whose covering extent is at most win bytes, or one longer
// segment by itself. It calls do with each run and the view-data position
// of the run's first byte, and stops at the first error.
func sieve(segs []pfs.Segment, win int64, do func(run []pfs.Segment, pos int64) error) error {
	var pos int64
	for len(segs) > 0 {
		lo, j := segs[0].Off, 1
		for j < len(segs) && segs[j].Off+segs[j].Len-lo <= win {
			j++
		}
		if err := do(segs[:j], pos); err != nil {
			return err
		}
		for _, s := range segs[:j] {
			pos += s.Len
		}
		segs = segs[j:]
	}
	return nil
}

// cover returns the file extent [lo, hi) that a window's run spans.
func cover(run []pfs.Segment) (lo, hi int64) {
	last := run[len(run)-1]
	return run[0].Off, last.Off + last.Len
}

// readWindow reads the extent covering run in one request and drains each
// segment's bytes into dst, the first at view-data position pos.
func (f *File) readWindow(run []pfs.Segment, pos int64, dst Sink) error {
	lo, hi := cover(run)
	win := bufpool.GetDirty(int(hi - lo))
	defer bufpool.Put(win)
	if err := f.read([]pfs.Segment{{Off: lo, Len: hi - lo}}, win); err != nil {
		return err
	}
	wanted := int64(0)
	for _, s := range run {
		dst.Drain(pos+wanted, win[s.Off-lo:s.Off-lo+s.Len])
		wanted += s.Len
	}
	f.st.Add(iostat.IOSieveReads, 1)
	f.st.Add(iostat.IOSieveReadAmpBytes, (hi-lo)-wanted)
	return nil
}

// writeWindow writes run's bytes, which src supplies from view-data
// position pos on, as a write behind (behind.go). A
// run of one segment is a plain write. A longer run is a read-modify-write of
// its covering extent under the file's range lock on exactly that extent, so
// sieving writers to disjoint windows proceed in parallel.
func (f *File) writeWindow(run []pfs.Segment, pos int64, src Source) error {
	lo, hi := cover(run)
	win := bufpool.GetDirty(int(hi - lo))
	defer bufpool.Put(win)
	seg, iov := []pfs.Segment{{Off: lo, Len: hi - lo}}, [][]byte{win}
	if len(run) == 1 {
		src.Fill(win, pos)
		_, err := f.writeBehind(seg, iov, hi-lo, -1)
		return err
	}
	f.pf.LockRMW(lo, hi-lo)
	defer f.pf.UnlockRMW(lo, hi-lo)
	if err := f.read(seg, win); err != nil {
		return err
	}
	wanted := int64(0)
	for _, s := range run {
		src.Fill(win[s.Off-lo:s.Off-lo+s.Len], pos+wanted)
		wanted += s.Len
	}
	if _, err := f.writeBehind(seg, iov, hi-lo, -1); err != nil {
		return err
	}
	f.st.Add(iostat.IOSieveRMW, 1)
	f.st.Add(iostat.IOSieveWriteAmpBytes, (hi-lo)-wanted)
	return nil
}
