package core

import (
	"pnetcdf/internal/access"
	"pnetcdf/internal/cdf"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
)

// --- High-level data access API (paper §4.1) ---
//
// Collective variants carry the All suffix and must be called by every
// process in the communicator; the non-All variants require independent
// data mode (BeginIndepData). All high-level routines delegate to the
// flexible implementation below, as in the PnetCDF implementation itself.

// PutVaraAll collectively writes the subarray (start, count).
func (d *Dataset) PutVaraAll(varid int, start, count []int64, data any) error {
	return d.highLevel(true, varid, start, count, nil, nil, data, true)
}

// GetVaraAll collectively reads the subarray (start, count).
func (d *Dataset) GetVaraAll(varid int, start, count []int64, data any) error {
	return d.highLevel(false, varid, start, count, nil, nil, data, true)
}

// PutVarsAll collectively writes a strided subarray.
func (d *Dataset) PutVarsAll(varid int, start, count, stride []int64, data any) error {
	return d.highLevel(true, varid, start, count, stride, nil, data, true)
}

// GetVarsAll collectively reads a strided subarray.
func (d *Dataset) GetVarsAll(varid int, start, count, stride []int64, data any) error {
	return d.highLevel(false, varid, start, count, stride, nil, data, true)
}

// PutVarmAll collectively writes a mapped strided subarray.
func (d *Dataset) PutVarmAll(varid int, start, count, stride, imap []int64, data any) error {
	return d.highLevel(true, varid, start, count, stride, imap, data, true)
}

// GetVarmAll collectively reads a mapped strided subarray.
func (d *Dataset) GetVarmAll(varid int, start, count, stride, imap []int64, data any) error {
	return d.highLevel(false, varid, start, count, stride, imap, data, true)
}

// PutVarAll collectively writes a whole variable.
func (d *Dataset) PutVarAll(varid int, data any) error { return d.wholeVar(true, varid, data) }

// GetVarAll collectively reads a whole variable.
func (d *Dataset) GetVarAll(varid int, data any) error { return d.wholeVar(false, varid, data) }

// PutVara independently writes the subarray (start, count); requires
// independent data mode.
func (d *Dataset) PutVara(varid int, start, count []int64, data any) error {
	return d.highLevel(true, varid, start, count, nil, nil, data, false)
}

// GetVara independently reads the subarray (start, count).
func (d *Dataset) GetVara(varid int, start, count []int64, data any) error {
	return d.highLevel(false, varid, start, count, nil, nil, data, false)
}

// PutVars independently writes a strided subarray.
func (d *Dataset) PutVars(varid int, start, count, stride []int64, data any) error {
	return d.highLevel(true, varid, start, count, stride, nil, data, false)
}

// GetVars independently reads a strided subarray.
func (d *Dataset) GetVars(varid int, start, count, stride []int64, data any) error {
	return d.highLevel(false, varid, start, count, stride, nil, data, false)
}

// PutVarm independently writes a mapped strided subarray.
func (d *Dataset) PutVarm(varid int, start, count, stride, imap []int64, data any) error {
	return d.highLevel(true, varid, start, count, stride, imap, data, false)
}

// GetVarm independently reads a mapped strided subarray.
func (d *Dataset) GetVarm(varid int, start, count, stride, imap []int64, data any) error {
	return d.highLevel(false, varid, start, count, stride, imap, data, false)
}

// PutVar1 independently writes one element.
func (d *Dataset) PutVar1(varid int, index []int64, data any) error {
	return d.highLevel(true, varid, index, cdf.OnesLike(index), nil, nil, data, false)
}

// GetVar1 independently reads one element.
func (d *Dataset) GetVar1(varid int, index []int64, data any) error {
	return d.highLevel(false, varid, index, cdf.OnesLike(index), nil, nil, data, false)
}

// wholeVar is the collective put or get of all of a variable.
func (d *Dataset) wholeVar(write bool, varid int, data any) error {
	start, count, err := d.Hdr.WholeVar(varid, data)
	if err != nil {
		return err
	}
	return d.highLevel(write, varid, start, count, nil, nil, data, true)
}

// --- Flexible API (paper §4.1): noncontiguous memory via MPI datatypes ---

// PutVaraTypeAll collectively writes (start, count) taking the elements of
// buf selected by memtype (element units), like ncmpi_put_vara_all with an
// MPI derived datatype. memtype.Size() must equal the request's element
// count. The flexible calls read memtype's flattened runs in place; a
// Datatype is immutable, so nothing is cloned per call.
func (d *Dataset) PutVaraTypeAll(varid int, start, count []int64, buf any, memtype mpitype.Datatype) error {
	return d.blocking(true, varid, start, count, nil, buf, memtype.Runs(), memtype.Size(), true)
}

// GetVaraTypeAll collectively reads (start, count) scattering into the
// elements of buf selected by memtype.
func (d *Dataset) GetVaraTypeAll(varid int, start, count []int64, buf any, memtype mpitype.Datatype) error {
	return d.blocking(false, varid, start, count, nil, buf, memtype.Runs(), memtype.Size(), true)
}

// PutVarsTypeAll is the strided flexible collective write.
func (d *Dataset) PutVarsTypeAll(varid int, start, count, stride []int64, buf any, memtype mpitype.Datatype) error {
	return d.blocking(true, varid, start, count, stride, buf, memtype.Runs(), memtype.Size(), true)
}

// GetVarsTypeAll is the strided flexible collective read.
func (d *Dataset) GetVarsTypeAll(varid int, start, count, stride []int64, buf any, memtype mpitype.Datatype) error {
	return d.blocking(false, varid, start, count, stride, buf, memtype.Runs(), memtype.Size(), true)
}

// PutVaraType is the independent flexible write.
func (d *Dataset) PutVaraType(varid int, start, count []int64, buf any, memtype mpitype.Datatype) error {
	return d.blocking(true, varid, start, count, nil, buf, memtype.Runs(), memtype.Size(), false)
}

// GetVaraType is the independent flexible read.
func (d *Dataset) GetVaraType(varid int, start, count []int64, buf any, memtype mpitype.Datatype) error {
	return d.blocking(false, varid, start, count, nil, buf, memtype.Runs(), memtype.Size(), false)
}

// highLevel routes the high-level calls onto the flexible implementation: an
// imap turns into memory element segments; otherwise the buffer is used
// contiguously.
func (d *Dataset) highLevel(write bool, varid int, start, count, stride, imap []int64, data any, collective bool) error {
	var memsegs []mpitype.Segment
	if imap != nil {
		var err error
		if memsegs, err = access.MemSegments(count, imap); err != nil {
			return err
		}
	}
	return d.blocking(write, varid, start, count, stride, data, memsegs, -1, collective)
}

func (d *Dataset) checkMode(collective bool) error {
	if err := d.Mode.CheckData(); err != nil {
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

// blocking is every put and get that returns with the data moved: prepare
// the one op, park it in the queue's spare capacity (storage the dataset
// already owns, so the call allocates no op record) and complete it alone.
// Ops queued earlier by IPutVara/IGetVara stay queued.
func (d *Dataset) blocking(write bool, varid int, start, count, stride []int64, data any, memsegs []mpitype.Segment, memSize int64, collective bool) error {
	if err := d.checkMode(collective); err != nil {
		return err
	}
	op, err := d.prepare(write, varid, start, count, stride, data, memsegs, memSize)
	if err != nil {
		return err
	}
	d.pending = append(d.pending, op)
	return d.complete(len(d.pending)-1, collective)
}

// prepare is the first half of every put and get: validate the request and
// check the memory — the type pair and the memory segments, so that the
// conversion, which put and get run piece by piece as MPI-IO packs and
// scatters, can raise nothing but NC_ERANGE. Nothing is converted or copied
// here: the op keeps the caller's memory until it completes. memsegs == nil
// means "use the buffer contiguously"; memSize < 0 means "no memtype to
// check".
//
// A read's record dimension is left unbounded here: complete checks it
// against the record count the ranks agree on, which this rank may not have
// seen yet.
func (d *Dataset) prepare(write bool, varid int, start, count, stride []int64, data any, memsegs []mpitype.Segment, memSize int64) (pendingOp, error) {
	if write && d.Mode.ReadOnly {
		return pendingOp{}, nctype.ErrPerm
	}
	v, err := d.Hdr.VarByID(varid)
	if err != nil {
		return pendingOp{}, err
	}
	req, err := access.Validate(d.Hdr, v, start, count, stride, true)
	if err != nil {
		return pendingOp{}, err
	}
	if memSize >= 0 && memSize != req.NElems {
		return pendingOp{}, nctype.ErrCountMismatch
	}
	op := pendingOp{write: write, varid: varid, v: v, req: req, data: data, memsegs: memsegs}
	if memsegs == nil {
		if op.data, err = netcdf.SliceHead(data, req.NElems); err != nil {
			return pendingOp{}, err
		}
	}
	if err := cdf.CheckSegs(v.Type, op.data, memsegs, !write); err != nil {
		return pendingOp{}, err
	}
	if write {
		d.invalidate(varid)
	}
	return op, nil
}
