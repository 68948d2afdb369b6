// Package core is PnetCDF — the paper's contribution: a parallel interface
// to netCDF classic files, built on MPI-IO. It mirrors the ncmpi_* C API:
//
//   - Create/Open take an MPI communicator and an MPI_Info hint object; the
//     file is opened, operated and closed by the participating processes as
//     a group (paper §4.1).
//   - The header lives as a synchronized local copy on every process: the
//     root reads it and broadcasts at open; define-mode, attribute and
//     inquiry calls are in-memory operations on the copy, with cross-process
//     consistency verified collectively; the root writes the header back at
//     the end of define mode (paper §4.2.1).
//   - Data access has two modes, collective (default, functions suffixed
//     All) and independent (between BeginIndepData/EndIndepData); every
//     access is translated into an MPI-IO file view built from the variable
//     metadata plus start/count/stride/imap, so MPI-IO's data sieving and
//     two-phase optimizations apply (paper §4.2.2).
//   - The high-level API (PutVara..., GetVars..., ...) takes contiguous Go
//     slices, like the original netCDF calls; the flexible API additionally
//     takes an MPI datatype describing noncontiguous memory. The high-level
//     routines are written on top of the flexible ones, as in the paper.
package core

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"

	"pnetcdf/internal/cdf"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpiio"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/pfs"
	"pnetcdf/internal/span"
)

// GlobalID addresses the dataset itself in attribute calls (NC_GLOBAL).
const GlobalID = cdf.GlobalID

// Dataset is an open parallel netCDF dataset. Every process in the
// communicator holds its own *Dataset whose header copies are kept
// identical by the collective define-mode calls.
type Dataset struct {
	// Front holds the header copy, the define/read-only/closed state and
	// the define, attribute and inquiry calls the serial library shares.
	cdf.Front

	comm *mpi.Comm
	f    *mpiio.File

	indep bool

	// hAlign, vAlign and vMin are the layout rule's arguments (cdf.Front.EndDef),
	// fixed at open (see layoutHints).
	hAlign, vAlign, vMin int64
	fill                 bool

	numrecsDirty bool // independent-mode record growth pending reconciliation

	// persistedNumRecs is the record count last written to (or read from)
	// the file header; the root uses it to keep on-disk numrecs updates
	// strictly monotonic. Meaningful on rank 0 only.
	persistedNumRecs int64

	// cache holds whole-variable external images loaded by the
	// nc_prefetch_vars hint (see prefetch.go); nil when the hint is absent.
	cache map[int][]byte

	// views caches flattened file views per access geometry relative to a
	// variable (viewcache.go). recSize is the header's record size, which
	// their key holds: it is set where the dataset enters data mode (Open,
	// EndDef), the only places a layout changes, so a put or get does not
	// walk every variable to find it.
	views   map[string]mpitype.Datatype
	recSize int64

	// pending is the iput/iget queue; a blocking call's one op lives in its
	// spare capacity while complete runs. geom holds the ops' start, count
	// and stride vectors (in geomFirst until a longer queue grows it). agree is
	// complete's reduction vector, codecs[i] the source or sink over the
	// memory of op i of a completion (first, until a longer completion grows
	// it) and merged the one over several ops; wplan, rplan and fused are
	// the pieces and the fused view's extents of a completion of several
	// ops. Kept here, so a warm call allocates none of them (DESIGN.md §3).
	pending   []pendingOp
	geom      []int64
	geomFirst [24]int64 // one op of up to 8 dimensions
	agree     [agreeLen]int64
	codecs    []memCodec
	first     [1]memCodec
	merged    merged
	wplan     []piece
	rplan     []piece
	fused     []mpitype.Segment

	// st/sp are the rank's iostat counters and span recorder, cached from
	// the communicator (nil = off).
	st *iostat.Stats
	sp *span.Recorder
}

// Create collectively creates a new dataset, entering define mode. cmode may
// include nctype.NoClobber, nctype.Bit64Offset, nctype.Bit64Data. PnetCDF
// hints read from info: nc_header_align_size (default 1) and
// nc_var_align_size (default: chosen from the file system's striping, see
// layoutHints).
func Create(comm *mpi.Comm, fsys *pfs.FS, path string, cmode int, info *mpi.Info) (*Dataset, error) {
	if comm == nil {
		return nil, nctype.ErrNullComm
	}
	amode := mpiio.ModeRdWr | mpiio.ModeCreate
	if cmode&nctype.NoClobber != 0 {
		amode |= mpiio.ModeExcl
	} else {
		amode |= mpiio.ModeTrunc
	}
	f, err := mpiio.Open(comm, fsys, path, amode, info)
	if errors.Is(err, mpiio.ErrExists) {
		return nil, fmt.Errorf("%w: %w", nctype.ErrExists, err)
	}
	if err != nil {
		return nil, err
	}
	d := &Dataset{comm: comm, f: f}
	d.Front = cdf.CreateFront(cmode, d.rewriteHeader)
	d.layoutHints(info)
	d.st, d.sp = comm.Proc().Stats(), comm.Proc().Spans()
	return d, nil
}

// Open collectively opens an existing dataset in data mode. omode is
// nctype.NoWrite or nctype.Write. The root reads the file header and
// broadcasts it; every process keeps a local copy (paper §4.2.1).
func Open(comm *mpi.Comm, fsys *pfs.FS, path string, omode int, info *mpi.Info) (d *Dataset, err error) {
	if comm == nil {
		return nil, nctype.ErrNullComm
	}
	err = mpi.CatchRevoked(func() error {
		d, err = open(comm, fsys, path, omode, info)
		return err
	})
	return d, err
}

func open(comm *mpi.Comm, fsys *pfs.FS, path string, omode int, info *mpi.Info) (*Dataset, error) {
	amode := mpiio.ModeRdOnly
	if omode&nctype.Write != 0 {
		amode = mpiio.ModeRdWr
	}
	f, err := mpiio.Open(comm, fsys, path, amode, info)
	if err != nil {
		return nil, err
	}
	// The root fetches the header (cdf.ReadHeader: a growing prefix, then the
	// commit journal when the in-place header is torn) and broadcasts it
	// followed by a status byte, so a root-side read failure is a collective
	// error rather than a hang. The byte goes into the room ReadHeader leaves
	// after the image, and the broadcast takes over the buffer ReadHeader
	// hands back: the root copies the image only when no room was left.
	var hdr *cdf.Header
	var blob []byte
	var herr error // this rank's failure to read or decode the header
	const (
		statusOK = iota
		statusReadFailed
		statusRecovered
	)
	var wire []byte
	if comm.Rank() == 0 {
		var size int64
		var recovered bool
		if size, herr = f.Size(); herr == nil {
			hdr, blob, recovered, herr = cdf.ReadHeader(size, f.ReadRaw)
		}
		status := byte(statusOK)
		if herr != nil && blob == nil { // the read itself failed: nothing to broadcast
			status = statusReadFailed
		} else if recovered {
			status = statusRecovered
		}
		wire = append(blob, status)
	}
	wire = comm.BcastOwned(0, wire)
	status := wire[len(wire)-1]
	if status == statusReadFailed {
		if herr != nil {
			return nil, herr
		}
		return nil, fmt.Errorf("pnetcdf: open %s: header read failed on root", path)
	}
	recovered := status == statusRecovered
	// The root keeps the header it decoded while probing; the others decode
	// the broadcast image: the header's own bytes, or — when the root could
	// not decode them — all it read, which they decode to the same error.
	blob = wire[:len(wire)-1]
	if comm.Rank() != 0 {
		hdr, herr = cdf.Decode(blob)
	}
	if herr != nil {
		return nil, herr
	}
	d := &Dataset{comm: comm, f: f, persistedNumRecs: hdr.NumRecs, recSize: hdr.RecSize()}
	d.Front = cdf.OpenFront(hdr, omode, d.rewriteHeader)
	d.layoutHints(info)
	d.st, d.sp = comm.Proc().Stats(), comm.Proc().Spans()
	d.st.Add(iostat.NCHeaderBcastBytes, int64(len(blob)))
	if recovered {
		d.st.Add(iostat.NCHeaderRecoveries, 1)
		if !d.Mode.ReadOnly {
			// Repair the torn in-place header from the journaled image.
			if err := d.writeHeaderCollective(); err != nil {
				return nil, err
			}
		}
	}
	if err := d.prefetch(info); err != nil {
		return nil, err
	}
	return d, nil
}

// layoutHints fixes the layout rule EndDef applies for as long as the dataset
// is open. An nc_var_align_size the caller gives puts every fixed variable on
// that boundary (1 is the classic packed layout, the serial library's). When
// it is absent the unit is the striping_unit MPI-IO reports for the file, as
// in PnetCDF, and it is spent only on variables of at least four units: those
// are the ones collective writes cross many stripes for, and padding stays
// under a quarter of whatever it precedes.
func (d *Dataset) layoutHints(info *mpi.Info) {
	d.hAlign = info.GetInt("nc_header_align_size", 1)
	if d.vAlign = info.GetInt("nc_var_align_size", 0); d.vAlign < 1 {
		d.vAlign = d.f.Info().GetInt("striping_unit", 1)
		d.vMin = 4 * d.vAlign
	}
}

// Comm returns the dataset's communicator.
func (d *Dataset) Comm() *mpi.Comm { return d.comm }

// SetFill enables prefilling, at EndDef, of the fixed variables each define
// mode adds (cdf.Front.EndDef's plan; PnetCDF defaults to nofill; this mirrors
// ncmpi_set_fill with NC_FILL).
func (d *Dataset) SetFill(on bool) { d.fill = on }

// rewriteHeader is the data-mode header rewrite the front asks for: the
// root commits once every rank's data writes are down.
func (d *Dataset) rewriteHeader() error {
	return mpi.CatchRevoked(func() error {
		d.drainAll()
		return d.writeHeaderCollective()
	})
}

// drainAll settles every rank's data writes ahead of a publish the root
// makes outside syncNumRecs: each rank drains its own, and a barrier holds
// the root until the last rank has.
func (d *Dataset) drainAll() {
	d.f.DrainWrites()
	d.comm.Barrier()
}

// EndDef leaves define mode collectively: the front verifies and lays out the
// header, every process checks that all built an identical one (the
// consistency guarantee of paper §4.2.1), the processes carry out the
// relocation a Redef made necessary, and the root writes the header and, in
// fill mode, fills the variables this define mode added.
func (d *Dataset) EndDef() error { return mpi.CatchRevoked(d.endDef) }

func (d *Dataset) endDef() error {
	// The root encodes the image it will commit (nothing below changes the
	// header); the others only hash their encoding. The digests settle
	// consistency, so no rank ships its header to another.
	var img []byte
	plan, err := d.Front.EndDef(d.hAlign, d.vAlign, d.vMin, func() error {
		var sum [sha256.Size]byte
		if d.comm.Rank() == 0 {
			img = d.Hdr.Encode()
			sum = sha256.Sum256(img)
		} else {
			sum = d.Hdr.Digest()
		}
		if !d.comm.AgreeDigest(sum) {
			return nctype.ErrConsistency
		}
		return nil
	})
	if err != nil {
		return err
	}
	d.recSize = d.Hdr.RecSize()
	if len(plan.Moves) > 0 {
		if err := d.relocate(plan.Moves); err != nil {
			return err
		}
	}
	// The root commits and fills; one agreement settles both, so a failure
	// there is an error on every rank, and nobody runs ahead of the header.
	var werr error
	if d.comm.Rank() == 0 {
		if werr = d.commitHeader(img); werr == nil && d.fill {
			werr = plan.Fill(d.f.WriteRaw)
		}
	}
	return d.comm.AgreeError(werr)
}

// Redef collectively re-enters define mode, agreeing on and persisting the
// record count first.
func (d *Dataset) Redef() error {
	return d.Front.Redef(func() error { return mpi.CatchRevoked(d.syncNumRecs) })
}

// writeHeaderCollective has the root, which alone encodes it, commit the
// current header; the outcome is agreed so every rank returns the same error
// and nobody runs ahead against a header that never landed.
func (d *Dataset) writeHeaderCollective() error {
	var werr error
	if d.comm.Rank() == 0 {
		werr = d.commitHeader(d.Hdr.Encode())
	}
	return d.comm.AgreeError(werr)
}

// rawFile is the root's view-bypassing handle on the file, in the shape
// cdf.CommitHeader writes through.
type rawFile struct{ f *mpiio.File }

func (r rawFile) Size() (int64, error)              { return r.f.Size() }
func (r rawFile) WriteAt(p []byte, off int64) error { return r.f.WriteRaw(p, off) }
func (r rawFile) SetSize(size int64) error          { return r.f.SetSizeRaw(size) }

// commitHeader publishes img, the encoding of the current header, through
// cdf.CommitHeader — the one crash-consistent commit both libraries share: a
// file Create has just truncated gets body-then-magic, any other the
// journaled rewrite that Open and ncvalidate recover from.
func (d *Dataset) commitHeader(img []byte) error {
	sc := d.sp.Begin(span.HeaderCommit)
	defer sc.End()
	sc.SetBytes(int64(len(img)))
	written, err := cdf.CommitHeader(rawFile{d.f}, img, d.Hdr.FileSize())
	d.st.Add(iostat.NCHeaderWriteBytes, written)
	if err != nil {
		return err
	}
	d.st.Add(iostat.NCHeaderCommits, 1)
	d.persistedNumRecs = d.Hdr.NumRecs
	return nil
}

// relocate carries out the moves of EndDef's plan. When every destination
// clears all the old data, the moves are cut into pieces of the copy buffer,
// dealt round-robin to the processes ("moving the existing data to the
// extended area is performed in parallel", paper §4.3), so even a single move
// keeps every process busy; otherwise a destination may be another move's
// source, and the root carries the plan out in its order. A rank whose move
// fails stops moving; the outcome is agreed, so every rank returns an error
// together.
func (d *Dataset) relocate(moves []cdf.Move) error {
	// Ranks may take moves independently only when nothing is written where
	// something is still to be read — by that move or by one another rank
	// has not reached yet: every destination lies past every source.
	lowestTo, highestFromEnd := int64(math.MaxInt64), int64(0)
	for _, m := range moves {
		lowestTo = min(lowestTo, m.To)
		highestFromEnd = max(highestFromEnd, m.From+m.N)
	}
	parallel := lowestTo >= highestFromEnd
	buf := make([]byte, 1<<20)
	if parallel {
		var pieces []cdf.Move
		for _, m := range moves {
			for at := int64(0); at < m.N; at += int64(len(buf)) {
				pieces = append(pieces, cdf.Move{From: m.From + at, To: m.To + at, N: min(m.N-at, int64(len(buf)))})
			}
		}
		moves = pieces
	}
	var err error
	for i, m := range moves {
		mover := 0
		if parallel {
			mover = i % d.comm.Size()
		}
		if mover == d.comm.Rank() {
			if err = m.Copy(buf, d.f.ReadRaw, d.f.WriteRaw); err != nil {
				break
			}
		}
	}
	// Each mover's writes are down before the agreement, so the root
	// commits the header only after every move has landed.
	d.f.DrainWrites()
	return d.comm.AgreeError(err)
}

// BeginIndepData enters independent data mode (ncmpi_begin_indep_data).
func (d *Dataset) BeginIndepData() error {
	if err := d.Mode.CheckData(); err != nil {
		return err
	}
	if d.indep {
		return nctype.ErrIndepMode
	}
	if err := mpi.CatchRevoked(func() error { d.comm.Barrier(); return nil }); err != nil {
		return err
	}
	d.indep = true
	return nil
}

// EndIndepData returns to collective data mode, reconciling any record
// growth performed independently.
func (d *Dataset) EndIndepData() error {
	if err := d.Mode.CheckData(); err != nil {
		return err
	}
	if !d.indep {
		return nctype.ErrCollMode
	}
	d.indep = false
	return mpi.CatchRevoked(d.syncNumRecs)
}

// syncNumRecs agrees on NumRecs across ranks (max) and persists it. Every
// rank's data writes are down before the agreement, so the root publishes
// after all of them.
func (d *Dataset) syncNumRecs() error {
	d.f.DrainWrites()
	agreed := d.comm.AllreduceI64([]int64{d.Hdr.NumRecs}, mpi.OpMax)[0]
	d.Hdr.NumRecs = agreed
	d.numrecsDirty = false
	d.st.Add(iostat.NCNumRecsSyncs, 1)
	return d.writeNumRecs()
}

// writeNumRecs has the root rewrite just the numrecs field, and the ranks
// agree on the outcome. The on-disk value is updated monotonically: the
// root skips the write when the agreed count has not grown past what is
// already persisted, so a crash can tear at most a strictly-growing update
// — and a torn (over-large) count is clamped by readers against the file
// size on journal recovery.
func (d *Dataset) writeNumRecs() error {
	var werr error
	if !d.Mode.ReadOnly && d.comm.Rank() == 0 && d.Hdr.NumRecs > d.persistedNumRecs {
		field := d.Hdr.EncodeNumRecs()
		werr = d.f.WriteRaw(field, cdf.NumRecsOffset)
		if werr == nil {
			d.persistedNumRecs = d.Hdr.NumRecs
		}
		d.st.Add(iostat.NCHeaderWriteBytes, int64(len(field)))
	}
	return d.comm.AgreeError(werr)
}

// Sync flushes everything collectively (ncmpi_sync).
func (d *Dataset) Sync() error {
	if err := d.Mode.CheckData(); err != nil {
		return err
	}
	if err := mpi.CatchRevoked(d.syncNumRecs); err != nil {
		return err
	}
	return d.f.Sync()
}

// Close collectively closes the dataset (ncmpi_close). All teardown steps
// run even when an earlier one fails — a flush error is joined with, not
// masked by, a later successful close (and vice versa) — and the handle is
// marked closed regardless, so a second Close is an idempotent no-op
// rather than a second flush attempt. On a revoked communicator every step
// fails at once with the same *mpi.revokedError, which Close returns, and the
// handle is released all the same.
func (d *Dataset) Close() error {
	if d.Mode.Closed {
		return nil
	}
	if len(d.pending) > 0 {
		return errors.New("pnetcdf: nonblocking requests pending at close; call WaitAll")
	}
	errs := make([]error, 0, 3) // at most one per step below, on the stack
	if d.Mode.Define {
		errs = append(errs, d.EndDef())
	}
	if !d.Mode.ReadOnly {
		errs = append(errs, mpi.CatchRevoked(d.syncNumRecs))
	}
	errs = append(errs, d.f.Close())
	d.Mode.Closed = true
	err := errors.Join(errs...)
	if rv, ok := mpi.AsRevoked(err); ok {
		return rv // the same revocation from every step: report it once
	}
	return err
}
