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
	comm *mpi.Comm
	fsys *pfs.FS
	f    *mpiio.File
	hdr  *cdf.Header
	path string

	define bool
	indep  bool
	ro     bool
	closed bool

	// hAlign, vAlign and vMin are cdf.ComputeLayoutAligned's arguments, fixed
	// at open (see layoutHints).
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

	// views caches flattened file views per (variable, access geometry);
	// cleared whenever a define-mode transition recomputes the layout.
	views map[string]mpitype.Datatype

	oldLayout *cdf.Header
	// pending is the iput/iget queue; a blocking call's one op lives in its
	// spare capacity while complete runs. agree is complete's reduction
	// vector, codecs[i] the source or sink over the memory of op i of a
	// completion (first, until a longer completion grows it) and merged the
	// one over several ops, kept here so a call allocates none of them.
	pending []pendingOp
	agree   [agreeLen]int64
	codecs  []memCodec
	first   [1]memCodec
	merged  merged

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
	if err != nil {
		return nil, err
	}
	version := 1
	if cmode&nctype.Bit64Offset != 0 {
		version = 2
	}
	if cmode&nctype.Bit64Data != 0 {
		version = 5
	}
	d := &Dataset{
		comm: comm, fsys: fsys, f: f, path: path,
		hdr:    &cdf.Header{Version: version},
		define: true,
	}
	d.layoutHints(info)
	d.st, d.sp = comm.Proc().Stats(), comm.Proc().Spans()
	return d, nil
}

// Open collectively opens an existing dataset in data mode. omode is
// nctype.NoWrite or nctype.Write. The root reads the file header and
// broadcasts it; every process keeps a local copy (paper §4.2.1).
func Open(comm *mpi.Comm, fsys *pfs.FS, path string, omode int, info *mpi.Info) (*Dataset, error) {
	if comm == nil {
		return nil, nctype.ErrNullComm
	}
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
	// behind a status byte, so a root-side read failure is a collective error
	// rather than a hang. The broadcast takes that buffer over: building it is
	// the one copy of the image the root makes.
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
		wire = append([]byte{status}, blob...)
	}
	wire = comm.BcastOwned(0, wire)
	status := wire[0]
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
	blob = wire[1:]
	if comm.Rank() != 0 {
		hdr, herr = cdf.Decode(blob)
	}
	if herr != nil {
		return nil, herr
	}
	if recovered {
		// The journaled (new) header may declare records that were lost with
		// the crash; clamp to what the file actually holds.
		if size, serr := f.Size(); serr == nil {
			if max := hdr.MaxRecsForSize(size); hdr.NumRecs > max {
				hdr.NumRecs = max
			}
		}
	}
	d := &Dataset{
		comm: comm, fsys: fsys, f: f, path: path,
		hdr: hdr,
		ro:  omode&nctype.Write == 0,

		persistedNumRecs: hdr.NumRecs,
	}
	d.layoutHints(info)
	d.st, d.sp = comm.Proc().Stats(), comm.Proc().Spans()
	d.st.Add(iostat.NCHeaderBcastBytes, int64(len(blob)))
	if recovered {
		d.st.Add(iostat.NCHeaderRecoveries, 1)
		if !d.ro {
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

// Header exposes the local header copy (inquiry use).
func (d *Dataset) Header() *cdf.Header { return d.hdr }

// SetFill enables prefilling of variables at EndDef (PnetCDF defaults to
// nofill; this mirrors ncmpi_set_fill with NC_FILL).
func (d *Dataset) SetFill(on bool) { d.fill = on }

// checkWrite admits a call that may change the header: the dataset is open
// and writable.
func (d *Dataset) checkWrite() error {
	switch {
	case d.closed:
		return nctype.ErrClosed
	case d.ro:
		return nctype.ErrPerm
	}
	return nil
}

func (d *Dataset) checkDefine() error {
	if err := d.checkWrite(); err != nil {
		return err
	}
	if !d.define {
		return nctype.ErrNotInDefine
	}
	return nil
}

func (d *Dataset) checkData() error {
	switch {
	case d.closed:
		return nctype.ErrClosed
	case d.define:
		return nctype.ErrInDefine
	}
	return nil
}

// --- Define mode functions (collective; same syntax as serial, paper §4.1) ---
//
// The rules are cdf.Header's (define.go), shared with the serial library;
// what is left here is the mode check and, for a data-mode change, the
// collective header rewrite. All processes must call with identical
// arguments.

// DefDim defines a dimension; size 0 declares the unlimited dimension.
func (d *Dataset) DefDim(name string, size int64) (int, error) {
	if err := d.checkDefine(); err != nil {
		return -1, err
	}
	return d.hdr.DefDim(name, size)
}

// DefVar defines a variable over previously defined dimensions.
func (d *Dataset) DefVar(name string, t nctype.Type, dimids []int) (int, error) {
	if err := d.checkDefine(); err != nil {
		return -1, err
	}
	return d.hdr.DefVar(name, t, dimids)
}

// PutAttr sets an attribute on a variable (or GlobalID). In data mode only
// same-or-smaller overwrites are allowed, and the root rewrites the header.
func (d *Dataset) PutAttr(varid int, name string, t nctype.Type, value any) error {
	if err := d.checkWrite(); err != nil {
		return err
	}
	return d.commitIf(d.hdr.PutAttr(varid, name, t, value, d.define))
}

// GetAttr returns an attribute's type and decoded value. Purely local — no
// file access or synchronization, one of PnetCDF's advantages over HDF5's
// dispersed metadata (paper §4.3).
func (d *Dataset) GetAttr(varid int, name string) (nctype.Type, any, error) {
	if d.closed {
		return 0, nil, nctype.ErrClosed
	}
	return d.hdr.GetAttr(varid, name)
}

// DelAttr removes an attribute (define mode).
func (d *Dataset) DelAttr(varid int, name string) error {
	if err := d.checkDefine(); err != nil {
		return err
	}
	return d.hdr.DelAttr(varid, name)
}

// AttrNames lists attribute names in definition order.
func (d *Dataset) AttrNames(varid int) ([]string, error) { return d.hdr.AttrNames(varid) }

// RenameDim collectively renames a dimension (ncmpi_rename_dim). In data
// mode the new name may not grow the header; the root rewrites the header.
func (d *Dataset) RenameDim(dimid int, newName string) error {
	if err := d.checkWrite(); err != nil {
		return err
	}
	return d.commitIf(d.hdr.RenameDim(dimid, newName, d.define))
}

// RenameVar collectively renames a variable (ncmpi_rename_var).
func (d *Dataset) RenameVar(varid int, newName string) error {
	if err := d.checkWrite(); err != nil {
		return err
	}
	return d.commitIf(d.hdr.RenameVar(varid, newName, d.define))
}

// RenameAttr collectively renames an attribute (ncmpi_rename_att).
func (d *Dataset) RenameAttr(varid int, oldName, newName string) error {
	if err := d.checkWrite(); err != nil {
		return err
	}
	return d.commitIf(d.hdr.RenameAttr(varid, oldName, newName, d.define))
}

// commitIf rewrites the header collectively when a data-mode change asks
// for it.
func (d *Dataset) commitIf(rewrite bool, err error) error {
	if err != nil || !rewrite {
		return err
	}
	return d.writeHeaderCollective()
}

// EndDef leaves define mode collectively: verifies that every process built
// an identical header (the consistency guarantee of paper §4.2.1), computes
// the layout, relocates data if a Redef grew the header, and has the root
// write the header.
func (d *Dataset) EndDef() error {
	if err := d.checkDefine(); err != nil {
		return err
	}
	if err := d.hdr.Validate(); err != nil {
		return err
	}
	if err := d.hdr.ComputeLayoutAligned(d.hAlign, d.vAlign, d.vMin); err != nil {
		return err
	}
	d.invalidateViews()
	// The root encodes the image it will commit (nothing below changes the
	// header); the others only hash their encoding. The digests settle
	// consistency, so no rank ships its header to another.
	var img []byte
	var sum [sha256.Size]byte
	if d.comm.Rank() == 0 {
		img = d.hdr.Encode()
		sum = sha256.Sum256(img)
	} else {
		sum = d.hdr.Digest()
	}
	if !d.comm.AgreeDigest(sum) {
		return nctype.ErrConsistency
	}
	d.define = false
	if d.oldLayout != nil {
		if err := d.relocate(d.oldLayout); err != nil {
			return err
		}
		d.oldLayout = nil
	}
	// The root commits and fills; one agreement settles both, so a failure
	// there is an error on every rank, and nobody runs ahead of the header.
	var werr error
	if d.comm.Rank() == 0 {
		if werr = d.commitHeader(img); werr == nil && d.fill {
			werr = d.fillVars()
		}
	}
	return d.comm.AgreeError(werr)
}

// Redef collectively re-enters define mode.
func (d *Dataset) Redef() error {
	if err := d.checkWrite(); err != nil {
		return err
	}
	if d.define {
		return nctype.ErrInDefine
	}
	if err := d.syncNumRecs(); err != nil {
		return err
	}
	d.oldLayout = d.hdr.Clone()
	d.define = true
	return nil
}

// writeHeaderCollective has the root, which alone encodes it, commit the
// current header; the outcome is agreed so every rank returns the same error
// and nobody runs ahead against a header that never landed.
func (d *Dataset) writeHeaderCollective() error {
	var werr error
	if d.comm.Rank() == 0 {
		werr = d.commitHeader(d.hdr.Encode())
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
	written, err := cdf.CommitHeader(rawFile{d.f}, img, d.hdr.FileSize())
	d.st.Add(iostat.NCHeaderWriteBytes, written)
	if err != nil {
		return err
	}
	d.st.Add(iostat.NCHeaderCommits, 1)
	d.persistedNumRecs = d.hdr.NumRecs
	return nil
}

// relocate moves data to the layout EndDef has just computed, following
// cdf.RelocationPlan. Moves whose destinations clear all the old data are
// divided among the processes ("moving the existing data to the extended
// area is performed in parallel", paper §4.3); otherwise a destination may be
// another move's source, and the root carries the plan out in its order. A
// rank whose move fails stops moving; the outcome is agreed, so every rank
// returns an error together.
func (d *Dataset) relocate(old *cdf.Header) error {
	moves := d.hdr.RelocationPlan(old)
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
	return d.comm.AgreeError(err)
}

// fillVars prefills all fixed variables with fill values. The root alone
// calls it (PnetCDF itself partitions the fill across ranks, which the data
// plane here also supports but the simpler root fill keeps EndDef
// deterministic).
func (d *Dataset) fillVars() error {
	for i := range d.hdr.Vars {
		v := &d.hdr.Vars[i]
		if d.hdr.IsRecordVar(v) {
			continue
		}
		n := v.VSize
		const chunk = 1 << 20
		fill := cdf.FillBytes(v, chunk/int64(v.Type.Size()))
		off := v.Begin
		for n > 0 {
			k := n
			if k > int64(len(fill)) {
				k = int64(len(fill))
			}
			if err := d.f.WriteRaw(fill[:k], off); err != nil {
				return err
			}
			off += k
			n -= k
		}
	}
	return nil
}

// BeginIndepData enters independent data mode (ncmpi_begin_indep_data).
func (d *Dataset) BeginIndepData() error {
	if err := d.checkData(); err != nil {
		return err
	}
	if d.indep {
		return nctype.ErrIndepMode
	}
	d.comm.Barrier()
	d.indep = true
	return nil
}

// EndIndepData returns to collective data mode, reconciling any record
// growth performed independently.
func (d *Dataset) EndIndepData() error {
	if err := d.checkData(); err != nil {
		return err
	}
	if !d.indep {
		return nctype.ErrCollMode
	}
	d.indep = false
	return d.syncNumRecs()
}

// syncNumRecs agrees on NumRecs across ranks (max) and persists it.
func (d *Dataset) syncNumRecs() error {
	agreed := d.comm.AllreduceI64([]int64{d.hdr.NumRecs}, mpi.OpMax)[0]
	d.hdr.NumRecs = agreed
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
	if !d.ro && d.comm.Rank() == 0 && d.hdr.NumRecs > d.persistedNumRecs {
		field := d.hdr.EncodeNumRecs()
		werr = d.f.WriteRaw(field, cdf.NumRecsOffset)
		if werr == nil {
			d.persistedNumRecs = d.hdr.NumRecs
		}
		d.st.Add(iostat.NCHeaderWriteBytes, int64(len(field)))
	}
	return d.comm.AgreeError(werr)
}

// Sync flushes everything collectively (ncmpi_sync).
func (d *Dataset) Sync() error {
	if err := d.checkData(); err != nil {
		return err
	}
	if err := d.syncNumRecs(); err != nil {
		return err
	}
	return d.f.Sync()
}

// Close collectively closes the dataset (ncmpi_close). All teardown steps
// run even when an earlier one fails — a flush error is joined with, not
// masked by, a later successful close (and vice versa) — and the handle is
// marked closed regardless, so a second Close is an idempotent no-op
// rather than a second flush attempt.
func (d *Dataset) Close() error {
	if d.closed {
		return nil
	}
	if len(d.pending) > 0 {
		return errors.New("pnetcdf: nonblocking requests pending at close; call WaitAll")
	}
	errs := make([]error, 0, 3) // at most one per step below, on the stack
	if d.define {
		errs = append(errs, d.EndDef())
	}
	if !d.ro {
		errs = append(errs, d.syncNumRecs())
	}
	errs = append(errs, d.f.Close())
	d.closed = true
	return errors.Join(errs...)
}
