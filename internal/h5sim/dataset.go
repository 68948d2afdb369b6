package h5sim

import (
	"encoding/binary"
	"fmt"
	"strings"

	"pnetcdf/internal/cdf"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpiio"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
)

// Dataset is an open dataset: a typed n-dimensional array with contiguous
// layout. Open/create/close are collective.
type Dataset struct {
	f       *File
	path    string
	hdrAddr int64

	typ      nctype.Type
	dims     []int64
	dataAddr int64
	dataSize int64
	attrs    []attr
}

// dataset header block layout (within dsHeaderCap bytes):
// magic(4) objDataset(4) type(4) rank(4) dims(8*rank) dataAddr(8)
// dataSize(8) attrBytes...
func (ds *Dataset) encodeHeader() ([]byte, error) {
	buf := make([]byte, 0, 256)
	buf = append(buf, headerMagic...)
	buf = binary.BigEndian.AppendUint32(buf, objDataset)
	buf = binary.BigEndian.AppendUint32(buf, uint32(ds.typ))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ds.dims)))
	for _, d := range ds.dims {
		buf = binary.BigEndian.AppendUint64(buf, uint64(d))
	}
	buf = binary.BigEndian.AppendUint64(buf, uint64(ds.dataAddr))
	buf = binary.BigEndian.AppendUint64(buf, uint64(ds.dataSize))
	buf = append(buf, encodeAttrs(ds.attrs)...)
	if len(buf) > dsHeaderCap {
		return nil, ErrHeaderFul
	}
	return buf, nil
}

func decodeDatasetHeader(buf []byte) (*Dataset, error) {
	if len(buf) < 16 || string(buf[:4]) != string(headerMagic) ||
		binary.BigEndian.Uint32(buf[4:]) != objDataset {
		return nil, fmt.Errorf("%w: no dataset header", ErrNotH5)
	}
	ds := &Dataset{typ: nctype.Type(binary.BigEndian.Uint32(buf[8:]))}
	rank := int(binary.BigEndian.Uint32(buf[12:]))
	pos := 16
	if len(buf) < pos+8*rank+16 {
		return nil, ErrNotH5
	}
	for i := 0; i < rank; i++ {
		ds.dims = append(ds.dims, int64(binary.BigEndian.Uint64(buf[pos:])))
		pos += 8
	}
	ds.dataAddr = int64(binary.BigEndian.Uint64(buf[pos:]))
	ds.dataSize = int64(binary.BigEndian.Uint64(buf[pos+8:]))
	pos += 16
	attrs, _, err := decodeAttrs(buf[pos:])
	if err != nil {
		return nil, err
	}
	ds.attrs = attrs
	return ds, nil
}

// CreateDataset collectively creates a contiguous dataset at path. The
// parent group must exist. Every process must call with identical
// arguments.
func (f *File) CreateDataset(path string, typ nctype.Type, dims []int64) (*Dataset, error) {
	if f.closed {
		return nil, fmt.Errorf("h5sim: file closed")
	}
	if f.ro {
		return nil, nctype.ErrPerm
	}
	n := typeSize(typ)
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("h5sim: invalid dimension %d", d)
		}
		n *= d
	}
	// Deterministic allocation on all ranks.
	hdrAddr := f.allocate(dsHeaderCap)
	dataAddr := f.allocate(n)
	ds := &Dataset{
		f: f, path: path, hdrAddr: hdrAddr,
		typ: typ, dims: append([]int64(nil), dims...),
		dataAddr: dataAddr, dataSize: n,
	}
	var errFlag int64
	if f.comm.Rank() == 0 {
		err := func() error {
			parts := splitPath(path)
			if len(parts) == 0 {
				return fmt.Errorf("%w: empty dataset path", ErrNotFound)
			}
			parentAddr := f.rootAddr
			if len(parts) > 1 {
				var lerr error
				parentAddr, lerr = f.lookupLocal(strings.Join(parts[:len(parts)-1], "/"))
				if lerr != nil {
					return lerr
				}
			}
			blob, err := ds.encodeHeader()
			if err != nil {
				return err
			}
			if err := f.mf.WriteRaw(blob, hdrAddr); err != nil {
				return err
			}
			return f.insertLocal(parentAddr, parts[len(parts)-1], hdrAddr)
		}()
		if err != nil {
			errFlag = 1
		}
	}
	state := mpi.DecodeI64s(f.comm.Bcast(0, mpi.EncodeI64s([]int64{errFlag, f.eof})))
	f.eof = state[1]
	f.comm.Barrier()
	if state[0] != 0 {
		return nil, fmt.Errorf("h5sim: create dataset %s failed", path)
	}
	return ds, nil
}

// OpenDataset collectively opens a dataset. Unlike PnetCDF's
// root-reads-then-broadcasts header handling, every process walks the
// namespace and fetches the object header from the file itself — the HDF5
// 1.4 behavior the paper contrasts with ("the cost of file access to locate
// and fetch the header information of that object", §4.3). The resulting
// small dispersed reads contend on the I/O servers as the process count
// grows.
func (f *File) OpenDataset(path string) (*Dataset, error) {
	if f.closed {
		return nil, fmt.Errorf("h5sim: file closed")
	}
	var blob []byte
	var hdrAddr int64
	var errFlag int64
	addr, err := f.lookupLocal(path)
	if err != nil {
		errFlag = 1
	} else {
		hdrAddr = addr
		blob = make([]byte, dsHeaderCap)
		if err := f.mf.ReadRaw(blob, addr); err != nil {
			errFlag = 1
		}
	}
	// Collective error agreement (all fail or all succeed together).
	if f.comm.AllreduceI64([]int64{errFlag}, mpi.OpMax)[0] != 0 {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	ds, err := decodeDatasetHeader(blob)
	if err != nil {
		return nil, err
	}
	ds.f = f
	ds.path = path
	ds.hdrAddr = hdrAddr
	return ds, nil
}

// Close collectively closes the dataset, rewriting its header (HDF5 1.4
// updated object metadata at close).
func (ds *Dataset) Close() error {
	if !ds.f.ro {
		if ds.f.comm.Rank() == 0 {
			blob, err := ds.encodeHeader()
			if err != nil {
				return err
			}
			if err := ds.f.mf.WriteRaw(blob, ds.hdrAddr); err != nil {
				return err
			}
		}
	}
	ds.f.metadataSync()
	return nil
}

// Dims returns the dataset's shape.
func (ds *Dataset) Dims() []int64 { return append([]int64(nil), ds.dims...) }

// Type returns the element type.
func (ds *Dataset) Type() nctype.Type { return ds.typ }

// PutAttr stores a small attribute in the object header (collective).
func (ds *Dataset) PutAttr(name string, typ nctype.Type, value any) error {
	if ds.f.ro {
		return nctype.ErrPerm
	}
	a, err := cdf.MakeAttr(name, typ, value)
	if err != nil {
		return err
	}
	na := attr{name: name, typ: typ, nelems: a.Nelems, data: a.Values}
	replaced := false
	for i := range ds.attrs {
		if ds.attrs[i].name == name {
			ds.attrs[i] = na
			replaced = true
			break
		}
	}
	if !replaced {
		ds.attrs = append(ds.attrs, na)
	}
	// Header rewrite by root + sync: metadata updates are collective.
	var errFlag int64
	if ds.f.comm.Rank() == 0 {
		blob, err := ds.encodeHeader()
		if err != nil {
			errFlag = 1
		} else if err := ds.f.mf.WriteRaw(blob, ds.hdrAddr); err != nil {
			errFlag = 1
		}
	}
	if mpi.DecodeI64s(ds.f.comm.Bcast(0, mpi.EncodeI64s([]int64{errFlag})))[0] != 0 {
		return ErrHeaderFul
	}
	return nil
}

// GetAttr returns an attribute's decoded value (local to the open handle).
func (ds *Dataset) GetAttr(name string) (nctype.Type, any, error) {
	for _, a := range ds.attrs {
		if a.name == name {
			v, err := cdf.DecodeAttrValue(cdf.Attr{Name: a.name, Type: a.typ, Nelems: a.nelems, Values: a.data})
			return a.typ, v, err
		}
	}
	return 0, nil, fmt.Errorf("%w: attribute %s", ErrNotFound, name)
}

// Select is a hyperslab selection: Start/Count over an array of shape Dims.
// For file selections Dims must equal the dataset shape; for memory
// selections Dims describes the application buffer (e.g. a guard-cell
// block).
type Select struct {
	Dims  []int64
	Start []int64
	Count []int64
}

func (s *Select) validate() (int64, error) {
	if len(s.Start) != len(s.Dims) || len(s.Count) != len(s.Dims) {
		return 0, fmt.Errorf("h5sim: selection rank mismatch")
	}
	n := int64(1)
	for i := range s.Dims {
		if s.Start[i] < 0 || s.Count[i] < 0 || s.Start[i]+s.Count[i] > s.Dims[i] {
			return 0, fmt.Errorf("h5sim: selection out of bounds in dim %d", i)
		}
		n *= s.Count[i]
	}
	return n, nil
}

// recursivePack walks the hyperslab dimension by dimension, copying one
// innermost row per leaf call — the HDF5 1.4 strategy the paper identifies
// as costly. It both performs the copy and charges the per-row recursion
// overhead to the caller's virtual clock.
func recursivePack[T any](src []T, dims, start, count []int64, dst []T, pos *int64, dim int, base int64, stride []int64, proc *mpi.Proc, gather bool) {
	proc.Advance(recursionCallCost)
	if dim == len(dims)-1 {
		off := base + start[dim]
		if gather {
			copy(dst[*pos:*pos+count[dim]], src[off:off+count[dim]])
		} else {
			copy(src[off:off+count[dim]], dst[*pos:*pos+count[dim]])
		}
		*pos += count[dim]
		return
	}
	for k := int64(0); k < count[dim]; k++ {
		recursivePack(src, dims, start, count, dst, pos, dim+1, base+(start[dim]+k)*stride[dim], stride, proc, gather)
	}
}

func strides(dims []int64) []int64 {
	s := make([]int64, len(dims))
	if len(dims) == 0 {
		return s
	}
	s[len(dims)-1] = 1
	for i := len(dims) - 2; i >= 0; i-- {
		s[i] = s[i+1] * dims[i+1]
	}
	return s
}

func packSelection(buf any, sel *Select, n int64, proc *mpi.Proc, gather bool, linear any) (any, error) {
	st := strides(sel.Dims)
	var pos int64
	switch src := buf.(type) {
	case []float64:
		dst, _ := linear.([]float64)
		if dst == nil {
			dst = make([]float64, n)
		}
		recursivePack(src, sel.Dims, sel.Start, sel.Count, dst, &pos, 0, 0, st, proc, gather)
		return dst, nil
	case []float32:
		dst, _ := linear.([]float32)
		if dst == nil {
			dst = make([]float32, n)
		}
		recursivePack(src, sel.Dims, sel.Start, sel.Count, dst, &pos, 0, 0, st, proc, gather)
		return dst, nil
	case []int32:
		dst, _ := linear.([]int32)
		if dst == nil {
			dst = make([]int32, n)
		}
		recursivePack(src, sel.Dims, sel.Start, sel.Count, dst, &pos, 0, 0, st, proc, gather)
		return dst, nil
	case []int64:
		dst, _ := linear.([]int64)
		if dst == nil {
			dst = make([]int64, n)
		}
		recursivePack(src, sel.Dims, sel.Start, sel.Count, dst, &pos, 0, 0, st, proc, gather)
		return dst, nil
	case []int16:
		dst, _ := linear.([]int16)
		if dst == nil {
			dst = make([]int16, n)
		}
		recursivePack(src, sel.Dims, sel.Start, sel.Count, dst, &pos, 0, 0, st, proc, gather)
		return dst, nil
	case []uint8:
		dst, _ := linear.([]uint8)
		if dst == nil {
			dst = make([]uint8, n)
		}
		recursivePack(src, sel.Dims, sel.Start, sel.Count, dst, &pos, 0, 0, st, proc, gather)
		return dst, nil
	}
	return nil, fmt.Errorf("h5sim: unsupported buffer type %T", buf)
}

// WriteAll collectively writes the file-space hyperslab fsel from the
// memory-space hyperslab msel of buf (msel nil = buf is contiguous and
// exactly the selection). All processes must call; empty selections are
// allowed.
func (ds *Dataset) WriteAll(fsel Select, msel *Select, buf any) error {
	if ds.f.ro {
		return nctype.ErrPerm
	}
	fsel.Dims = ds.dims
	n, err := fsel.validate()
	if err != nil {
		return err
	}
	// Memory-side: recursive hyperslab packing.
	var linear any
	if msel != nil {
		mn, err := msel.validate()
		if err != nil {
			return err
		}
		if mn != n {
			return fmt.Errorf("h5sim: memory selection (%d) != file selection (%d)", mn, n)
		}
		linear, err = packSelection(buf, msel, n, ds.f.comm.Proc(), true, nil)
		if err != nil {
			return err
		}
	} else {
		linear, err = netcdf.SliceHead(buf, n)
		if err != nil {
			return err
		}
	}
	// Convert to the file representation (charged as a linear copy).
	ext, encErr := cdf.EncodeSlice(nil, ds.typ, linear)
	if encErr != nil && encErr != cdf.ErrRange {
		return encErr
	}
	ds.f.comm.Proc().Advance(float64(len(ext)) / memcpyBytesPerSec)
	// File-space: recursive traversal again to build the offset list (HDF5
	// walks the file dataspace the same way), then MPI-IO collective write.
	view, err := ds.fileView(&fsel)
	if err != nil {
		return err
	}
	if err := ds.f.mf.SetView(0, view); err != nil {
		return err
	}
	// The data transfer itself is independent, as HDF5 1.4's default
	// transfer mode (and the FLASH benchmark configuration of the era) was:
	// each process writes its own hyperslab, without collective buffering —
	// so unaligned per-process slabs pay the file system's partial-stripe
	// penalty that two-phase I/O's aligned domains avoid.
	if err := ds.f.mf.WriteAtFrom(0, int64(len(ext)), mpiio.Bytes(ext)); err != nil {
		return err
	}
	ds.f.comm.Barrier()
	// Write-time metadata update: the root rewrites the object header and
	// every process exchanges its metadata-cache state (paper: "HDF5
	// metadata is updated during data writes... additional synchronization
	// is necessary at write time"). The exchange volume grows with the
	// process count, as the real library's cache coherence traffic did.
	if ds.f.comm.Rank() == 0 {
		blob, err := ds.encodeHeader()
		if err != nil {
			return err
		}
		if len(blob) > headerIOBytes {
			blob = blob[:headerIOBytes]
		}
		if err := ds.f.mf.WriteRaw(blob, ds.hdrAddr); err != nil {
			return err
		}
	}
	ds.f.metadataSync()
	return encErr
}

// ReadAll collectively reads the file-space hyperslab fsel into the memory
// hyperslab msel of buf.
func (ds *Dataset) ReadAll(fsel Select, msel *Select, buf any) error {
	fsel.Dims = ds.dims
	n, err := fsel.validate()
	if err != nil {
		return err
	}
	view, err := ds.fileView(&fsel)
	if err != nil {
		return err
	}
	if err := ds.f.mf.SetView(0, view); err != nil {
		return err
	}
	ext := make([]byte, n*typeSize(ds.typ))
	if err := ds.f.mf.ReadAtInto(0, int64(len(ext)), mpiio.Bytes(ext)); err != nil {
		return err
	}
	ds.f.comm.Barrier()
	ds.f.comm.Proc().Advance(float64(len(ext)) / memcpyBytesPerSec)
	if msel == nil {
		linear, err := netcdf.SliceHead(buf, n)
		if err != nil {
			return err
		}
		return cdf.DecodeSlice(ext, ds.typ, linear)
	}
	mn, err := msel.validate()
	if err != nil {
		return err
	}
	if mn != n {
		return fmt.Errorf("h5sim: memory selection (%d) != file selection (%d)", mn, n)
	}
	tmp, err := netcdf.MakeLike(buf, n)
	if err != nil {
		return err
	}
	if err := cdf.DecodeSlice(ext, ds.typ, tmp); err != nil {
		return err
	}
	// Recursive unpack into the guarded buffer.
	_, err = packSelection(buf, msel, n, ds.f.comm.Proc(), false, tmp)
	return err
}

// fileView builds the MPI-IO view for a file hyperslab, charging the
// recursive dataspace walk.
func (ds *Dataset) fileView(fsel *Select) (mpitype.Datatype, error) {
	sub, err := mpitype.Subarray(ds.dims, fsel.Count, fsel.Start, typeSize(ds.typ))
	if err != nil {
		return mpitype.Datatype{}, err
	}
	// Charge the recursive walk over the selection rows.
	rows := int64(1)
	for i := 0; i < len(fsel.Count)-1; i++ {
		rows *= fsel.Count[i]
	}
	ds.f.comm.Proc().Advance(float64(rows) * recursionCallCost)
	segs := sub.Tiled(nil, ds.dataAddr, 1)
	end := int64(0)
	if len(segs) > 0 {
		end = segs[len(segs)-1].Off + segs[len(segs)-1].Len
	}
	return mpitype.FromSegments(segs, end)
}
