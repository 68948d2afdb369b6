package mpiio

import (
	"pnetcdf/internal/bufpool"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/pfs"
	"pnetcdf/internal/span"
)

// ReadAtInto reads n view-data bytes at view offset off independently and
// hands them to dst. It and WriteAtFrom are the one place mpiio stages a
// whole request: ReadAt and its data sieving fill one pooled buffer, which
// dst then drains. The romio_cb_read = false fallback of ReadAtAllInto
// comes here too.
func (f *File) ReadAtInto(off, n int64, dst Sink) error {
	buf := bufpool.GetDirty(int(n))
	defer bufpool.Put(buf)
	if err := f.ReadAt(off, buf); err != nil {
		return err
	}
	dst.Drain(0, buf)
	return nil
}

// WriteAtFrom writes the n view-data bytes src supplies at view offset off
// independently: src fills one pooled buffer, which WriteAt and its data
// sieving take (see ReadAtInto).
func (f *File) WriteAtFrom(off, n int64, src Source) error {
	buf := bufpool.GetDirty(int(n))
	defer bufpool.Put(buf)
	src.Fill(buf, 0)
	return f.WriteAt(off, buf)
}

// ReadAt reads len(buf) view-data bytes starting at view offset off into
// buf. Independent (no coordination with other ranks). Noncontiguous views
// use data sieving when enabled: instead of one small read per hole-separated
// piece, whole covering windows are read once and the wanted bytes copied
// out — ROMIO's romio_ds_read strategy. Transient storage errors are retried
// under the file's retry policy; errors that remain are returned.
func (f *File) ReadAt(off int64, buf []byte) error {
	if f.closed {
		return ErrClosed
	}
	sp := f.sp.Begin(span.IndepRead)
	defer sp.End()
	sp.SetBytes(int64(len(buf)))
	segs, err := f.viewSegments(off, int64(len(buf)))
	if err != nil {
		return err
	}
	t0 := f.comm.Clock()
	if len(segs) <= 1 || !f.hints.DSRead {
		if err := f.doPF(func(t float64) (float64, error) {
			return f.pf.ReadV(t, segs, buf)
		}); err != nil {
			return err
		}
	} else if err := f.sieveRead(segs, buf); err != nil {
		return err
	}
	f.recordAccess(iostat.IOIndepReadCalls, iostat.IOBytesRead,
		iostat.IOReadExtents, iostat.IOReadTimeNs, segs, int64(len(buf)), t0)
	return nil
}

// sieveRead processes the segment list in covering windows of at most
// IndRdBufferSize bytes: one contiguous read per window, then per-segment
// copies.
func (f *File) sieveRead(segs []pfs.Segment, buf []byte) error {
	win := f.hints.IndRdBufferSize
	bufPos := int64(0)
	i := 0
	for i < len(segs) {
		lo := segs[i].Off
		hi := segs[i].Off + segs[i].Len
		j := i + 1
		// Extend the window while the next segment still fits within win
		// bytes of coverage.
		for j < len(segs) && segs[j].Off+segs[j].Len-lo <= win {
			hi = segs[j].Off + segs[j].Len
			j++
		}
		cover := bufpool.GetDirty(int(hi - lo))
		if err := f.doPF(func(t float64) (float64, error) {
			return f.pf.ReadAt(t, cover, lo)
		}); err != nil {
			bufpool.Put(cover)
			return err
		}
		wanted := int64(0)
		for k := i; k < j; k++ {
			s := segs[k]
			copy(buf[bufPos:bufPos+s.Len], cover[s.Off-lo:s.Off-lo+s.Len])
			bufPos += s.Len
			wanted += s.Len
		}
		bufpool.Put(cover)
		f.st.Add(iostat.IOSieveReads, 1)
		f.st.Add(iostat.IOSieveReadAmpBytes, (hi-lo)-wanted)
		i = j
	}
	return nil
}

// WriteAt writes len(buf) view-data bytes starting at view offset off.
// Independent. Noncontiguous views use data sieving when enabled: the
// covering window is read, modified in memory, and written back under the
// file's read-modify-write lock — ROMIO's romio_ds_write strategy.
func (f *File) WriteAt(off int64, buf []byte) error {
	if f.closed {
		return ErrClosed
	}
	if f.amode&ModeRdOnly != 0 {
		return ErrReadOnly
	}
	sp := f.sp.Begin(span.IndepWrite)
	defer sp.End()
	sp.SetBytes(int64(len(buf)))
	segs, err := f.viewSegments(off, int64(len(buf)))
	if err != nil {
		return err
	}
	t0 := f.comm.Clock()
	if len(segs) <= 1 || !f.hints.DSWrite {
		if err := f.doPF(func(t float64) (float64, error) {
			return f.pf.WriteV(t, segs, buf)
		}); err != nil {
			return err
		}
	} else if err := f.sieveWrite(segs, buf); err != nil {
		return err
	}
	f.recordAccess(iostat.IOIndepWriteCalls, iostat.IOBytesWritten,
		iostat.IOWriteExtents, iostat.IOWriteTimeNs, segs, int64(len(buf)), t0)
	return nil
}

func (f *File) sieveWrite(segs []pfs.Segment, buf []byte) error {
	win := f.hints.IndWrBufferSize
	bufPos := int64(0)
	i := 0
	for i < len(segs) {
		lo := segs[i].Off
		hi := segs[i].Off + segs[i].Len
		j := i + 1
		for j < len(segs) && segs[j].Off+segs[j].Len-lo <= win {
			hi = segs[j].Off + segs[j].Len
			j++
		}
		// Fully covered single segment: plain write, no RMW needed.
		if j == i+1 {
			s := segs[i]
			if err := f.doPF(func(t float64) (float64, error) {
				return f.pf.WriteAt(t, buf[bufPos:bufPos+s.Len], s.Off)
			}); err != nil {
				return err
			}
			bufPos += s.Len
			i = j
			continue
		}
		// Lock exactly the read-modify-write window: sieving writers to
		// disjoint windows proceed in parallel.
		f.pf.LockRMW(lo, hi-lo)
		cover := bufpool.GetDirty(int(hi - lo))
		release := func() {
			bufpool.Put(cover)
			f.pf.UnlockRMW(lo, hi-lo)
		}
		if err := f.doPF(func(t float64) (float64, error) {
			return f.pf.ReadAt(t, cover, lo)
		}); err != nil {
			release()
			return err
		}
		wanted := int64(0)
		for k := i; k < j; k++ {
			s := segs[k]
			copy(cover[s.Off-lo:s.Off-lo+s.Len], buf[bufPos:bufPos+s.Len])
			bufPos += s.Len
			wanted += s.Len
		}
		if err := f.doPF(func(t float64) (float64, error) {
			return f.pf.WriteAt(t, cover, lo)
		}); err != nil {
			release()
			return err
		}
		release()
		f.st.Add(iostat.IOSieveRMW, 1)
		f.st.Add(iostat.IOSieveWriteAmpBytes, (hi-lo)-wanted)
		i = j
	}
	return nil
}
