// Package mpiio implements the MPI-IO interface on top of the simulated
// parallel file system (internal/pfs) and the MPI runtime (internal/mpi):
// communicator-scoped collective open/close, file views built from MPI
// datatypes, independent read/write with ROMIO-style data sieving, and
// collective read/write with ROMIO-style two-phase I/O (aggregators, file
// domains, round-based exchange) — the optimizations the paper's PnetCDF
// inherits "for free" by building on MPI-IO.
//
// Hints follow ROMIO's vocabulary: cb_nodes, cb_buffer_size,
// romio_cb_read/write, romio_ds_read/write, ind_rd_buffer_size,
// ind_wr_buffer_size. Info additionally reports striping_unit and
// striping_factor, which are the file system's to set, not the caller's.
package mpiio

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/pfs"
	"pnetcdf/internal/span"
)

// Access mode flags, mirroring MPI_MODE_*.
const (
	ModeRdOnly = 1 << iota
	ModeRdWr
	ModeCreate
	ModeExcl
	ModeTrunc // not in MPI; PnetCDF's NC_CLOBBER create maps to Create|Trunc
)

// Errors.
var (
	ErrNoSuchFile = errors.New("mpiio: no such file")
	ErrExists     = errors.New("mpiio: file exists")
	ErrReadOnly   = errors.New("mpiio: file opened read-only")
	ErrClosed     = errors.New("mpiio: file is closed")
)

// Hints is the resolved set of I/O tuning knobs for one open file.
type Hints struct {
	// CBNodes is cb_nodes clamped to the ranks, or every rank: the most
	// aggregators a collective read has.
	CBNodes int
	// CBNodesGiven tells a given cb_nodes from the default. Given, a read
	// has CBNodes aggregators; by default it chooses its count per request
	// (readAggregators).
	CBNodesGiven bool
	// CBWriteNodes is the number of aggregators of a collective write:
	// cb_nodes, or one per I/O server — min(ranks, striping_factor).
	CBWriteNodes int
	// CBBufferSize bounds each aggregator's per-round staging buffer.
	CBBufferSize int64
	// CBRead/CBWrite enable two-phase collective buffering.
	CBRead  bool
	CBWrite bool
	// DSRead/DSWrite enable data sieving for independent noncontiguous I/O.
	DSRead  bool
	DSWrite bool
	// IndRdBufferSize / IndWrBufferSize bound the sieving windows.
	IndRdBufferSize int64
	IndWrBufferSize int64
}

// resolveHints resolves info on comm for a file system of factor I/O
// servers. An explicit cb_nodes sets the aggregator count of both
// directions. Without it a write, whose link runs behind the clock
// (DESIGN.md §13), has one aggregator per server, so each server takes few
// large requests rather than one per rank; a read, whose link is on its
// clock, keeps every rank unless the request is too small to give each rank
// more than a stripe per server, and then takes the count that trades link
// time against server requests best (readAggregators, DESIGN.md §12).
func resolveHints(comm *mpi.Comm, info *mpi.Info, factor int) Hints {
	h := Hints{
		CBNodes:         comm.Size(),
		CBWriteNodes:    min(comm.Size(), factor),
		CBBufferSize:    16 << 20,
		CBRead:          true,
		CBWrite:         true,
		DSRead:          true,
		DSWrite:         true,
		IndRdBufferSize: 4 << 20,
		IndWrBufferSize: 4 << 20,
	}
	if n := int(info.GetInt("cb_nodes", 0)); n >= 1 {
		h.CBNodes = min(n, comm.Size())
		h.CBNodesGiven = true
		h.CBWriteNodes = h.CBNodes
	}
	if v := info.GetInt("cb_buffer_size", h.CBBufferSize); v >= 4096 {
		h.CBBufferSize = v
	}
	h.CBRead = info.GetBool("romio_cb_read", h.CBRead)
	h.CBWrite = info.GetBool("romio_cb_write", h.CBWrite)
	h.DSRead = info.GetBool("romio_ds_read", h.DSRead)
	h.DSWrite = info.GetBool("romio_ds_write", h.DSWrite)
	if v := info.GetInt("ind_rd_buffer_size", h.IndRdBufferSize); v >= 4096 {
		h.IndRdBufferSize = v
	}
	if v := info.GetInt("ind_wr_buffer_size", h.IndWrBufferSize); v >= 4096 {
		h.IndWrBufferSize = v
	}
	return h
}

// File is an open MPI-IO file: a communicator-wide handle over one pfs file.
type File struct {
	comm   *mpi.Comm
	fs     *pfs.FS
	pf     *pfs.File
	amode  int
	hints  Hints
	info   *mpi.Info
	closed bool

	// st/sp are the rank's iostat counters and span recorder, cached from
	// the communicator's Proc at open time (nil = off).
	st *iostat.Stats
	sp *span.Recorder

	// behind holds the rank's writes still in flight (behind.go).
	behind writeQueue

	// File view: absolute displacement plus a byte-unit filetype that tiles
	// from there. A zero-size filetype means the identity view.
	disp  int64
	ftype mpitype.Datatype

	// buf is the caller's buffer for the length of one WriteAtAll or
	// ReadAtAll: the Source or Sink it hands the round loop, with no
	// interface box to allocate.
	buf Bytes
}

// Open opens (or creates) name collectively over comm. Every member must
// call it with the same arguments. The returned handles share one underlying
// file. On a revoked communicator it returns the *mpi.ErrRevoked.
func Open(comm *mpi.Comm, fsys *pfs.FS, name string, amode int, info *mpi.Info) (f *File, err error) {
	if comm == nil {
		return nil, errors.New("mpiio: nil communicator")
	}
	err = mpi.CatchRevoked(func() error {
		f, err = open(comm, fsys, name, amode, info)
		return err
	})
	return f, err
}

func open(comm *mpi.Comm, fsys *pfs.FS, name string, amode int, info *mpi.Info) (*File, error) {
	// Rank 0 arbitrates existence/creation, then broadcasts the verdict so
	// every rank fails or succeeds together.
	var verdict int64
	if comm.Rank() == 0 {
		exists := fsys.Exists(name)
		switch {
		case amode&ModeCreate != 0 && exists && amode&ModeExcl != 0:
			verdict = 2 // exists, exclusive create
		case amode&ModeCreate == 0 && !exists:
			verdict = 1 // missing
		case !exists:
			_, t := fsys.Create(name, comm.Clock())
			comm.Proc().SetClock(t)
			verdict = 3 // created
		}
	}
	verdict = mpi.DecodeI64s(comm.Bcast(0, mpi.EncodeI64s([]int64{verdict})))[0]
	switch verdict {
	case 1:
		return nil, fmt.Errorf("%w: %s", ErrNoSuchFile, name)
	case 2:
		return nil, fmt.Errorf("%w: %s", ErrExists, name)
	}
	pf, t, err := fsys.Open(name, comm.Clock())
	if err != nil {
		return nil, err
	}
	comm.Proc().SetClock(t)
	if amode&ModeTrunc != 0 {
		if comm.Rank() == 0 {
			pf.Truncate(0)
		}
	}
	cfg := fsys.Config()
	f := &File{comm: comm, fs: fsys, pf: pf, amode: amode, hints: resolveHints(comm, info, cfg.NumServers), info: info.Clone(),
		behind: writeQueue{cache: cfg.ClientCache, stripe: cfg.StripeSize}}
	// As MPI_File_get_info does under ROMIO, Info reports the striping the
	// file has; this file system stripes every file alike, so a value the
	// caller supplied is advice it cannot take.
	f.info.Set("striping_unit", strconv.FormatInt(cfg.StripeSize, 10))
	f.info.Set("striping_factor", strconv.Itoa(cfg.NumServers))
	f.st, f.sp = comm.Proc().Stats(), comm.Proc().Spans()
	pf.SetStats(f.st, comm.Rank())
	pf.SetSpans(f.sp)
	// Everyone leaves a create or truncation together, with the new file
	// visible; an open of what exists changes nothing for a peer to see.
	if verdict == 3 || amode&ModeTrunc != 0 {
		comm.Barrier()
	}
	return f, nil
}

// Delete removes a file; a single-process operation like MPI_File_delete.
func Delete(fsys *pfs.FS, name string) error { return fsys.Remove(name) }

// Comm returns the communicator the file was opened on.
func (f *File) Comm() *mpi.Comm { return f.comm }

// Hints returns the resolved hint set.
func (f *File) Hints() Hints { return f.hints }

// Info returns the hints the file was opened with, plus the striping_unit
// (bytes) and striping_factor (I/O servers) of the file system it is on.
func (f *File) Info() *mpi.Info { return f.info }

// SetView installs the file view: data byte i of the view maps through the
// filetype tiling anchored at displacement disp. Passing a zero-size
// Datatype restores the identity view. Like MPI, SetView is collective; all
// members must install a view (their filetypes normally differ — that is the
// point).
func (f *File) SetView(disp int64, filetype mpitype.Datatype) error {
	if f.closed {
		return ErrClosed
	}
	if disp < 0 {
		return errors.New("mpiio: negative view displacement")
	}
	f.disp = disp
	f.ftype = filetype
	return nil
}

// viewSegments maps [off, off+n) data bytes of the view to absolute file
// segments, in increasing file order. The list is read-only: for an access
// that covers the whole view it is the filetype's own typemap (a pfs.Segment
// is an mpitype.Segment), shared with the view cache above.
func (f *File) viewSegments(off, n int64) ([]pfs.Segment, error) {
	if n == 0 {
		return nil, nil
	}
	if f.ftype.Size() == 0 {
		return []pfs.Segment{{Off: f.disp + off, Len: n}}, nil
	}
	return f.ftype.SegmentsForRangeSpan(f.disp, off, n, f.sp)
}

// Size returns the current file size in bytes.
func (f *File) Size() (int64, error) {
	if f.closed {
		return 0, ErrClosed
	}
	return f.pf.Size(), nil
}

// SetSize truncates or extends the file; collective.
func (f *File) SetSize(size int64) error {
	if f.closed {
		return ErrClosed
	}
	if f.amode&ModeRdOnly != 0 {
		return ErrReadOnly
	}
	if f.comm.Rank() == 0 {
		f.pf.Truncate(size)
	}
	return f.barrier()
}

// Sync flushes the file collectively, like MPI_File_sync: every rank's
// writes are down when it returns.
func (f *File) Sync() error {
	if f.closed {
		return ErrClosed
	}
	f.DrainWrites()
	t := f.pf.Sync(f.comm.Clock())
	f.comm.Proc().SetClock(t)
	return f.barrier()
}

// Close closes the handle collectively, once every rank's writes are down.
// On a revoked communicator it releases the handle all the same and returns
// the *mpi.ErrRevoked.
func (f *File) Close() error {
	if f.closed {
		return ErrClosed
	}
	f.DrainWrites()
	f.closed = true
	return f.barrier()
}

// barrier ends a collective file operation: every member has done its part
// when it returns nil. A revoked communicator is returned as its error.
func (f *File) barrier() error {
	return mpi.CatchRevoked(func() error {
		f.comm.Barrier()
		return nil
	})
}

// settle advances the rank clock to max(clock, end) for a request the rank
// stopped waiting on at virtual time issued, and credits the virtual time
// the request spent in flight while the rank did other work to
// io_overlap_ns (none when it is settled at once).
func (f *File) settle(issued, end float64) {
	now := f.comm.Clock()
	if overlap := math.Min(end, now) - issued; overlap > 0 {
		f.st.AddTime(iostat.IOOverlapTimeNs, overlap)
	}
	if end > now {
		f.comm.Proc().SetClock(end)
	}
}

// read reads segs into consecutive bytes of buf as one pfs request from the
// rank's clock, and settles it at once. The request's bytes have moved, and
// a transient fault has been resumed (pfs.File.ReadAhead), when it returns.
func (f *File) read(segs []pfs.Segment, buf []byte) error {
	t := f.comm.Clock()
	end, err := f.pf.ReadV(t, segs, buf)
	f.settle(t, end)
	return err
}

// ReadRaw reads bytes at an absolute offset, bypassing the view. The header
// paths of the libraries above use it. Independent.
func (f *File) ReadRaw(buf []byte, off int64) error {
	return f.ReadRawV([]pfs.Segment{{Off: off, Len: int64(len(buf))}}, buf)
}

// ReadRawV reads the segments, sorted and disjoint, into consecutive bytes
// of buf as one request, bypassing the view. Independent.
func (f *File) ReadRawV(segs []pfs.Segment, buf []byte) error {
	if f.closed {
		return ErrClosed
	}
	if err := f.read(segs, buf); err != nil {
		return err
	}
	f.st.Add(iostat.IORawBytesRead, int64(len(buf)))
	return nil
}

// WriteRaw writes bytes at an absolute offset, bypassing the view, as a
// write behind that ends no earlier than any write issued before it
// (behind.go). The header paths of the libraries above use it. Independent.
func (f *File) WriteRaw(buf []byte, off int64) error {
	if f.closed {
		return ErrClosed
	}
	if f.amode&ModeRdOnly != 0 {
		return ErrReadOnly
	}
	seg := []pfs.Segment{{Off: off, Len: int64(len(buf))}}
	if !f.behind.ordered(f.behind.stripeOf(seg)) {
		f.DrainWrites()
	}
	if _, err := f.writeBehind(seg, [][]byte{buf}, int64(len(buf)), -1); err != nil {
		return err
	}
	f.st.Add(iostat.IORawBytesWritten, int64(len(buf)))
	return nil
}

// SetSizeRaw sets the file size from this rank alone: SetSize without the
// collective, for the root's header commit. Independent.
func (f *File) SetSizeRaw(size int64) error {
	if f.closed {
		return ErrClosed
	}
	if f.amode&ModeRdOnly != 0 {
		return ErrReadOnly
	}
	f.pf.Truncate(size)
	return nil
}

// recordAccess accumulates one data-access call's counters. start is the
// rank's clock when the call was entered; the clock has already been
// advanced to completion.
func (f *File) recordAccess(calls, bytes, exts, timeNs iostat.Counter, segs []pfs.Segment, n int64, start float64) {
	if f.st == nil {
		return
	}
	f.st.Add(calls, 1)
	f.st.Add(bytes, n)
	f.st.Add(exts, int64(len(segs)))
	f.st.AddTime(timeNs, f.comm.Clock()-start)
}
