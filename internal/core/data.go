package core

import (
	"pnetcdf/internal/access"
	"pnetcdf/internal/bufpool"
	"pnetcdf/internal/cdf"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
	"pnetcdf/internal/span"
)

// --- Inquiry functions: purely local, no synchronization (paper §4.3) ---

// NumDims returns the number of dimensions.
func (d *Dataset) NumDims() int { return len(d.hdr.Dims) }

// NumVars returns the number of variables.
func (d *Dataset) NumVars() int { return len(d.hdr.Vars) }

// NumRecs returns this process's view of the record count (collective ops
// and Sync keep it agreed across processes).
func (d *Dataset) NumRecs() int64 { return d.hdr.NumRecs }

// UnlimitedDimID returns the record dimension's ID, or -1.
func (d *Dataset) UnlimitedDimID() int { return d.hdr.UnlimitedDimID() }

// DimID looks a dimension up by name (-1 if absent).
func (d *Dataset) DimID(name string) int { return d.hdr.FindDim(name) }

// VarID looks a variable up by name (-1 if absent).
func (d *Dataset) VarID(name string) int { return d.hdr.FindVar(name) }

// InqDim returns a dimension's name and length.
func (d *Dataset) InqDim(dimid int) (string, int64, error) {
	if dimid < 0 || dimid >= len(d.hdr.Dims) {
		return "", 0, nctype.ErrNotDim
	}
	dim := d.hdr.Dims[dimid]
	return dim.Name, dim.Len, nil
}

// InqVar returns a variable's name, type and dimension IDs.
func (d *Dataset) InqVar(varid int) (string, nctype.Type, []int, error) {
	if varid < 0 || varid >= len(d.hdr.Vars) {
		return "", 0, nil, nctype.ErrNotVar
	}
	v := &d.hdr.Vars[varid]
	return v.Name, v.Type, append([]int(nil), v.DimIDs...), nil
}

// VarShape returns a variable's current dimension lengths.
func (d *Dataset) VarShape(varid int) ([]int64, error) {
	if varid < 0 || varid >= len(d.hdr.Vars) {
		return nil, nctype.ErrNotVar
	}
	return d.hdr.VarShape(&d.hdr.Vars[varid]), nil
}

func (d *Dataset) varByID(varid int) (*cdf.Var, error) {
	if varid < 0 || varid >= len(d.hdr.Vars) {
		return nil, nctype.ErrNotVar
	}
	return &d.hdr.Vars[varid], nil
}

// --- High-level data access API (paper §4.1) ---
//
// Collective variants carry the All suffix and must be called by every
// process in the communicator; the non-All variants require independent
// data mode (BeginIndepData). All high-level routines delegate to the
// flexible implementation below, as in the PnetCDF implementation itself.

// PutVaraAll collectively writes the subarray (start, count).
func (d *Dataset) PutVaraAll(varid int, start, count []int64, data any) error {
	return d.putCommon(varid, start, count, nil, nil, data, true)
}

// GetVaraAll collectively reads the subarray (start, count).
func (d *Dataset) GetVaraAll(varid int, start, count []int64, data any) error {
	return d.getCommon(varid, start, count, nil, nil, data, true)
}

// PutVarsAll collectively writes a strided subarray.
func (d *Dataset) PutVarsAll(varid int, start, count, stride []int64, data any) error {
	return d.putCommon(varid, start, count, stride, nil, data, true)
}

// GetVarsAll collectively reads a strided subarray.
func (d *Dataset) GetVarsAll(varid int, start, count, stride []int64, data any) error {
	return d.getCommon(varid, start, count, stride, nil, data, true)
}

// PutVarmAll collectively writes a mapped strided subarray.
func (d *Dataset) PutVarmAll(varid int, start, count, stride, imap []int64, data any) error {
	return d.putCommon(varid, start, count, stride, imap, data, true)
}

// GetVarmAll collectively reads a mapped strided subarray.
func (d *Dataset) GetVarmAll(varid int, start, count, stride, imap []int64, data any) error {
	return d.getCommon(varid, start, count, stride, imap, data, true)
}

// PutVarAll collectively writes a whole variable.
func (d *Dataset) PutVarAll(varid int, data any) error {
	start, count, err := d.wholeVar(varid, data)
	if err != nil {
		return err
	}
	return d.putCommon(varid, start, count, nil, nil, data, true)
}

// GetVarAll collectively reads a whole variable.
func (d *Dataset) GetVarAll(varid int, data any) error {
	start, count, err := d.wholeVar(varid, data)
	if err != nil {
		return err
	}
	return d.getCommon(varid, start, count, nil, nil, data, true)
}

// PutVara independently writes the subarray (start, count); requires
// independent data mode.
func (d *Dataset) PutVara(varid int, start, count []int64, data any) error {
	return d.putCommon(varid, start, count, nil, nil, data, false)
}

// GetVara independently reads the subarray (start, count).
func (d *Dataset) GetVara(varid int, start, count []int64, data any) error {
	return d.getCommon(varid, start, count, nil, nil, data, false)
}

// PutVars independently writes a strided subarray.
func (d *Dataset) PutVars(varid int, start, count, stride []int64, data any) error {
	return d.putCommon(varid, start, count, stride, nil, data, false)
}

// GetVars independently reads a strided subarray.
func (d *Dataset) GetVars(varid int, start, count, stride []int64, data any) error {
	return d.getCommon(varid, start, count, stride, nil, data, false)
}

// PutVarm independently writes a mapped strided subarray.
func (d *Dataset) PutVarm(varid int, start, count, stride, imap []int64, data any) error {
	return d.putCommon(varid, start, count, stride, imap, data, false)
}

// GetVarm independently reads a mapped strided subarray.
func (d *Dataset) GetVarm(varid int, start, count, stride, imap []int64, data any) error {
	return d.getCommon(varid, start, count, stride, imap, data, false)
}

// PutVar1 independently writes one element.
func (d *Dataset) PutVar1(varid int, index []int64, data any) error {
	ones := onesLike(index)
	return d.putCommon(varid, index, ones, nil, nil, data, false)
}

// GetVar1 independently reads one element.
func (d *Dataset) GetVar1(varid int, index []int64, data any) error {
	ones := onesLike(index)
	return d.getCommon(varid, index, ones, nil, nil, data, false)
}

func onesLike(index []int64) []int64 {
	ones := make([]int64, len(index))
	for i := range ones {
		ones[i] = 1
	}
	return ones
}

func (d *Dataset) wholeVar(varid int, data any) ([]int64, []int64, error) {
	v, err := d.varByID(varid)
	if err != nil {
		return nil, nil, err
	}
	shape := d.hdr.VarShape(v)
	start := make([]int64, len(shape))
	if d.hdr.IsRecordVar(v) && len(shape) > 0 && shape[0] == 0 {
		inner := int64(1)
		for _, s := range shape[1:] {
			inner *= s
		}
		if inner > 0 {
			shape[0] = int64(cdf.SliceLen(data)) / inner
		}
	}
	return start, shape, nil
}

// --- Flexible API (paper §4.1): noncontiguous memory via MPI datatypes ---

// PutVaraTypeAll collectively writes (start, count) taking the elements of
// buf selected by memtype (element units), like ncmpi_put_vara_all with an
// MPI derived datatype. memtype.Size() must equal the request's element
// count. The flexible calls read memtype's flattened runs in place; a
// Datatype is immutable, so nothing is cloned per call.
func (d *Dataset) PutVaraTypeAll(varid int, start, count []int64, buf any, memtype mpitype.Datatype) error {
	return d.putFlex(varid, start, count, nil, buf, memtype.Runs(), memtype.Size(), true)
}

// GetVaraTypeAll collectively reads (start, count) scattering into the
// elements of buf selected by memtype.
func (d *Dataset) GetVaraTypeAll(varid int, start, count []int64, buf any, memtype mpitype.Datatype) error {
	return d.getFlex(varid, start, count, nil, buf, memtype.Runs(), memtype.Size(), true)
}

// PutVarsTypeAll is the strided flexible collective write.
func (d *Dataset) PutVarsTypeAll(varid int, start, count, stride []int64, buf any, memtype mpitype.Datatype) error {
	return d.putFlex(varid, start, count, stride, buf, memtype.Runs(), memtype.Size(), true)
}

// GetVarsTypeAll is the strided flexible collective read.
func (d *Dataset) GetVarsTypeAll(varid int, start, count, stride []int64, buf any, memtype mpitype.Datatype) error {
	return d.getFlex(varid, start, count, stride, buf, memtype.Runs(), memtype.Size(), true)
}

// PutVaraType is the independent flexible write.
func (d *Dataset) PutVaraType(varid int, start, count []int64, buf any, memtype mpitype.Datatype) error {
	return d.putFlex(varid, start, count, nil, buf, memtype.Runs(), memtype.Size(), false)
}

// GetVaraType is the independent flexible read.
func (d *Dataset) GetVaraType(varid int, start, count []int64, buf any, memtype mpitype.Datatype) error {
	return d.getFlex(varid, start, count, nil, buf, memtype.Runs(), memtype.Size(), false)
}

// putCommon routes the high-level calls: an imap turns into memory element
// segments; otherwise the buffer is used contiguously.
func (d *Dataset) putCommon(varid int, start, count, stride, imap []int64, data any, collective bool) error {
	if imap == nil {
		return d.putFlex(varid, start, count, stride, data, nil, -1, collective)
	}
	memsegs, err := access.MemSegments(count, imap)
	if err != nil {
		return err
	}
	return d.putFlex(varid, start, count, stride, data, memsegs, -1, collective)
}

func (d *Dataset) getCommon(varid int, start, count, stride, imap []int64, data any, collective bool) error {
	if imap == nil {
		return d.getFlex(varid, start, count, stride, data, nil, -1, collective)
	}
	memsegs, err := access.MemSegments(count, imap)
	if err != nil {
		return err
	}
	return d.getFlex(varid, start, count, stride, data, memsegs, -1, collective)
}

func (d *Dataset) checkMode(collective bool) error {
	if err := d.checkData(); err != nil {
		return err
	}
	if collective && d.indep {
		return nctype.ErrIndepMode
	}
	if !collective && !d.indep {
		return nctype.ErrCollMode
	}
	return nil
}

// putFlex is the single write path: validate, linearize memory, convert to
// external bytes, install the MPI-IO file view, and write (collectively or
// independently). memsegs == nil means "use the buffer contiguously".
func (d *Dataset) putFlex(varid int, start, count, stride []int64, data any, memsegs []mpitype.Segment, memSize int64, collective bool) error {
	// One span per put call; the deferred End closes any children still open
	// when an error path unwinds.
	sc := d.sp.Begin(span.NCPut)
	defer sc.End()
	if err := d.checkMode(collective); err != nil {
		return err
	}
	if d.ro {
		return nctype.ErrPerm
	}
	v, err := d.varByID(varid)
	if err != nil {
		return err
	}
	req, err := access.Validate(d.hdr, v, start, count, stride, true)
	if err != nil {
		return err
	}
	if memSize >= 0 && memSize != req.NElems {
		return nctype.ErrCountMismatch
	}
	// Pack straight from user memory into a pooled external buffer: strided
	// memory runs run-length over the flattened typemap (no gathered
	// intermediate), contiguous memory is a single conversion pass.
	ext := bufpool.GetDirty(int(req.NElems) * v.Type.Size())[:0]
	defer func() { bufpool.Put(ext) }()
	sEnc := d.sp.Begin(span.Encode)
	var encErr error
	if memsegs == nil {
		var linear any
		linear, err = netcdf.SliceHead(data, req.NElems)
		if err != nil {
			sEnc.End()
			return err
		}
		ext, encErr = cdf.EncodeSlice(ext, v.Type, linear)
	} else {
		ext, encErr = cdf.EncodeSegs(ext, v.Type, data, memsegs)
	}
	sEnc.SetBytes(int64(len(ext)))
	sEnc.End()
	if encErr != nil && encErr != cdf.ErrRange {
		return encErr
	}
	// Record growth: collective ops agree on the new record count up front;
	// independent ops grow locally and reconcile at EndIndepData/Sync. The
	// agreement folds in NumRecs itself: if ranks entered with divergent
	// counts (a peer grew records this rank has not seen), everyone adopts
	// the maximum first, so all ranks make the same grow-or-not decision —
	// writeNumRecs is collective, and a rank skipping it would hang the rest.
	if collective {
		agreed := d.comm.AllreduceI64([]int64{req.LastRecord, d.hdr.NumRecs}, mpi.OpMax)
		if agreed[1] > d.hdr.NumRecs {
			d.hdr.NumRecs = agreed[1]
		}
		if last := agreed[0]; last >= d.hdr.NumRecs {
			d.hdr.NumRecs = last + 1
			if err := d.writeNumRecs(); err != nil {
				return err
			}
		}
	} else if req.LastRecord >= d.hdr.NumRecs {
		d.hdr.NumRecs = req.LastRecord + 1
		d.numrecsDirty = true
	}
	d.invalidate(varid)
	sView := d.sp.Begin(span.ViewResolve)
	view, err := d.fileView(varid, v, req)
	if err == nil {
		err = d.f.SetView(0, view)
	}
	sView.End()
	if err != nil {
		return err
	}
	t0 := d.comm.Clock()
	if collective {
		err = d.f.WriteAtAll(0, ext)
	} else {
		err = d.f.WriteAt(0, ext)
	}
	if err == nil {
		d.recordAccess("put", collective, iostat.NCCollPuts, iostat.NCIndepPuts,
			iostat.NCBytesPut, iostat.NCPutTimeNs, int64(len(ext)), t0)
		// netCDF range semantics, as the serial library implements them:
		// out-of-range values were written wrapped and NC_ERANGE is
		// reported after the (successful) write.
		return encErr
	}
	return err
}

// recordAccess accumulates one put/get call's counters and trace event.
func (d *Dataset) recordAccess(op string, collective bool, coll, indep, bytes, timeNs iostat.Counter, n int64, start float64) {
	if d.st == nil && d.tr == nil {
		return
	}
	k := indep
	if collective {
		k = coll
		op = "coll_" + op
	}
	end := d.comm.Clock()
	d.st.Add(k, 1)
	d.st.Add(bytes, n)
	d.st.AddTime(timeNs, end-start)
	d.tr.Record(iostat.Event{
		Layer: "pnetcdf", Op: op, Rank: d.comm.Rank(),
		Off: -1, Len: n, Start: start, End: end,
	})
}

// getFlex is the single read path.
func (d *Dataset) getFlex(varid int, start, count, stride []int64, data any, memsegs []mpitype.Segment, memSize int64, collective bool) error {
	sc := d.sp.Begin(span.NCGet)
	defer sc.End()
	if err := d.checkMode(collective); err != nil {
		return err
	}
	// Collective boundary: agree on the record count BEFORE validating, so a
	// rank that has not seen a peer's record growth neither rejects a valid
	// request nor (worse) bails out of the collective while its peers
	// proceed into the exchange — the stale-NumRecs window. The same
	// allreduce folds in the nonblocking-write flag: a blocking read of a
	// variable with a queued IPutVara (on ANY rank) would observe stale
	// file data, so every rank agrees to return ErrPending together —
	// nobody proceeds into the exchange alone.
	if collective {
		pend := int64(0)
		if d.pendingWrite(varid) {
			pend = 1
		}
		agreed := d.comm.AllreduceI64([]int64{d.hdr.NumRecs, pend}, mpi.OpMax)
		if agreed[0] > d.hdr.NumRecs {
			d.hdr.NumRecs = agreed[0]
		}
		if agreed[1] != 0 {
			return nctype.ErrPending
		}
	} else if d.pendingWrite(varid) {
		// Independent reads check locally: the stale window is the local
		// queue (peer queues are invisible to independent I/O anyway).
		return nctype.ErrPending
	}
	v, err := d.varByID(varid)
	if err != nil {
		return err
	}
	req, err := access.Validate(d.hdr, v, start, count, stride, false)
	if err != nil {
		return err
	}
	if memSize >= 0 && memSize != req.NElems {
		return nctype.ErrCountMismatch
	}
	// Pooled and dirty: the read (or cache hit) fills every byte.
	ext := bufpool.GetDirty(int(req.NElems) * v.Type.Size())
	defer bufpool.Put(ext)
	if !d.cachedRead(varid, req, ext) {
		sView := d.sp.Begin(span.ViewResolve)
		view, err := d.fileView(varid, v, req)
		if err == nil {
			err = d.f.SetView(0, view)
		}
		sView.End()
		if err != nil {
			return err
		}
		t0 := d.comm.Clock()
		if collective {
			err = d.f.ReadAtAll(0, ext)
		} else {
			err = d.f.ReadAt(0, ext)
		}
		if err != nil {
			return err
		}
		d.recordAccess("get", collective, iostat.NCCollGets, iostat.NCIndepGets,
			iostat.NCBytesGot, iostat.NCGetTimeNs, int64(len(ext)), t0)
	}
	// Decode shares the encode phase tag: both are the external<->native
	// conversion step.
	sDec := d.sp.Begin(span.Encode)
	defer sDec.End()
	sDec.SetBytes(int64(len(ext)))
	if memsegs == nil {
		linear, err := netcdf.SliceHead(data, req.NElems)
		if err != nil {
			return err
		}
		return cdf.DecodeSlice(ext, v.Type, linear)
	}
	// Scatter run-length over the flattened typemap — no decoded
	// intermediate.
	return cdf.DecodeSegs(ext, v.Type, memsegs, data)
}
