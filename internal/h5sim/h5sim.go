// Package h5sim is a working hierarchical scientific-data container with
// parallel semantics modeled on HDF5 1.4.x, the comparator in the paper's
// FLASH I/O evaluation. It is a real library — files are self-describing
// and round-trip — but its design reproduces the four overheads the paper
// attributes to parallel HDF5 (§4.3, §5.2):
//
//  1. Dataset create/open/close are collective operations: the root
//     performs the (dispersed) object-header I/O and every process
//     synchronizes.
//  2. Metadata is dispersed: each object has its own header block, located
//     by walking the group namespace with separate small reads, instead of
//     netCDF's single header.
//  3. Hyperslab selections are packed/unpacked by a recursive
//     per-dimension copy, charged (and executed) per row.
//  4. Writes update object metadata, forcing an extra synchronization at
//     write time.
//
// Data I/O itself goes through the same MPI-IO layer PnetCDF uses, so the
// performance gap measured by the FLASH benchmark emerges from these
// structural differences, not from a biased data path.
package h5sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"

	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpiio"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/pfs"
)

// Simulated CPU costs for the packing path (virtual time).
const (
	memcpyBytesPerSec = 3e9    // linear copy bandwidth
	recursionCallCost = 1.5e-6 // per recursive row visit (HDF5 1.4 hyperslab code)
	headerIOBytes     = 512    // small dispersed metadata accesses
)

var (
	superMagic  = []byte{0x89, 'H', 'S', 'F'}
	headerMagic = []byte{'O', 'H', 'D', 'R'}
)

const (
	objGroup   = 1
	objDataset = 2

	superblockSize = 64
	groupHeaderLen = 64
	dsHeaderCap    = 4096 // object header chunk; a dataset header must fit
)

// Errors.
var (
	errNotH5     = errors.New("h5sim: not an h5sim file")
	errNotFound  = errors.New("h5sim: object not found")
	errExists    = errors.New("h5sim: object already exists")
	errHeaderFul = errors.New("h5sim: object header full")
)

// file is an open container. All operations are collective over the
// communicator unless noted.
type file struct {
	comm *mpi.Comm
	mf   *mpiio.File
	ro   bool

	eof      int64 // allocation pointer, kept identical on all ranks
	rootAddr int64
	closed   bool
}

// CreateFile collectively creates a new container with an empty root group.
func CreateFile(comm *mpi.Comm, fsys *pfs.FS, name string, info *mpi.Info) (*file, error) {
	mf, err := mpiio.Open(comm, fsys, name, mpiio.ModeRdWr|mpiio.ModeCreate|mpiio.ModeTrunc, info)
	if err != nil {
		return nil, err
	}
	f := &file{comm: comm, mf: mf, eof: superblockSize}
	// Root group.
	f.rootAddr = f.allocate(groupHeaderLen)
	tableAddr := f.allocate(4096)
	if comm.Rank() == 0 {
		if err := f.writeGroupHeader(f.rootAddr, tableAddr, 4096, 0); err != nil {
			return nil, err
		}
		if err := f.writeSuperblock(); err != nil {
			return nil, err
		}
	}
	comm.Barrier()
	return f, nil
}

// OpenFile collectively opens an existing container; the root reads the
// superblock and broadcasts it.
func OpenFile(comm *mpi.Comm, fsys *pfs.FS, name string, readonly bool, info *mpi.Info) (*file, error) {
	amode := mpiio.ModeRdWr
	if readonly {
		amode = mpiio.ModeRdOnly
	}
	mf, err := mpiio.Open(comm, fsys, name, amode, info)
	if err != nil {
		return nil, err
	}
	var blob []byte
	if comm.Rank() == 0 {
		blob = make([]byte, superblockSize)
		if err := mf.ReadRaw(blob, 0); err != nil {
			return nil, err
		}
	}
	blob = comm.Bcast(0, blob)
	if string(blob[:4]) != string(superMagic) {
		return nil, errNotH5
	}
	f := &file{comm: comm, mf: mf, ro: readonly}
	f.rootAddr = int64(binary.BigEndian.Uint64(blob[8:]))
	f.eof = int64(binary.BigEndian.Uint64(blob[16:]))
	return f, nil
}

// allocate reserves n bytes at the end of file. Deterministic across ranks:
// it is only called inside collective operations executed in the same order
// everywhere.
func (f *file) allocate(n int64) int64 {
	addr := f.eof
	f.eof += (n + 7) &^ 7
	return addr
}

func (f *file) writeSuperblock() error {
	buf := make([]byte, superblockSize)
	copy(buf, superMagic)
	binary.BigEndian.PutUint32(buf[4:], 1) // version
	binary.BigEndian.PutUint64(buf[8:], uint64(f.rootAddr))
	binary.BigEndian.PutUint64(buf[16:], uint64(f.eof))
	return f.mf.WriteRaw(buf, 0)
}

// --- group machinery ---

type groupHeader struct {
	tableAddr int64
	tableCap  int64
	nEntries  int64
}

func (f *file) writeGroupHeader(addr, tableAddr, tableCap, nEntries int64) error {
	buf := make([]byte, groupHeaderLen)
	copy(buf, headerMagic)
	binary.BigEndian.PutUint32(buf[4:], objGroup)
	binary.BigEndian.PutUint64(buf[8:], uint64(tableAddr))
	binary.BigEndian.PutUint64(buf[16:], uint64(tableCap))
	binary.BigEndian.PutUint64(buf[24:], uint64(nEntries))
	return f.mf.WriteRaw(buf, addr)
}

// readGroupHeader performs the dispersed-metadata small read; root-only
// callers broadcast the result.
func (f *file) readGroupHeader(addr int64) (groupHeader, error) {
	buf := make([]byte, groupHeaderLen)
	if err := f.mf.ReadRaw(buf, addr); err != nil {
		return groupHeader{}, err
	}
	if string(buf[:4]) != string(headerMagic) || binary.BigEndian.Uint32(buf[4:]) != objGroup {
		return groupHeader{}, fmt.Errorf("%w: no group header at %d", errNotH5, addr)
	}
	return groupHeader{
		tableAddr: int64(binary.BigEndian.Uint64(buf[8:])),
		tableCap:  int64(binary.BigEndian.Uint64(buf[16:])),
		nEntries:  int64(binary.BigEndian.Uint64(buf[24:])),
	}, nil
}

type groupEntry struct {
	name string
	addr int64
}

func encodeEntries(entries []groupEntry) []byte {
	var buf []byte
	for _, e := range entries {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.name)))
		buf = append(buf, e.name...)
		buf = binary.BigEndian.AppendUint64(buf, uint64(e.addr))
	}
	return buf
}

func decodeEntries(buf []byte, n int64) ([]groupEntry, error) {
	entries := make([]groupEntry, 0, n)
	pos := 0
	for i := int64(0); i < n; i++ {
		if pos+2 > len(buf) {
			return nil, errNotH5
		}
		l := int(binary.BigEndian.Uint16(buf[pos:]))
		pos += 2
		if pos+l+8 > len(buf) {
			return nil, errNotH5
		}
		name := string(buf[pos : pos+l])
		pos += l
		addr := int64(binary.BigEndian.Uint64(buf[pos:]))
		pos += 8
		entries = append(entries, groupEntry{name, addr})
	}
	return entries, nil
}

// readEntries walks a group's table (root-only; small dispersed reads).
func (f *file) readEntries(gh groupHeader) ([]groupEntry, error) {
	buf := make([]byte, gh.tableCap)
	if err := f.mf.ReadRaw(buf, gh.tableAddr); err != nil {
		return nil, err
	}
	return decodeEntries(buf, gh.nEntries)
}

// lookupLocal walks path from the root on the calling rank (independent,
// used under root-only sections). Returns the object header address.
func (f *file) lookupLocal(path string) (int64, error) {
	parts := splitPath(path)
	addr := f.rootAddr
	for i, p := range parts {
		gh, err := f.readGroupHeader(addr)
		if err != nil {
			return 0, err
		}
		entries, err := f.readEntries(gh)
		if err != nil {
			return 0, err
		}
		// Model the B-tree/local-heap iteration: the namespace walk reads
		// entries one at a time until the match ("it has to iterate through
		// the entire namespace to get the header information", paper §4.3).
		found := int64(-1)
		for _, e := range entries {
			f.comm.Proc().Advance(recursionCallCost)
			if e.name == p {
				found = e.addr
				break
			}
		}
		if found < 0 {
			return 0, fmt.Errorf("%w: %s", errNotFound, strings.Join(parts[:i+1], "/"))
		}
		addr = found
	}
	return addr, nil
}

// insertLocal adds (name -> addr) to the parent group of path on the calling
// rank, growing the entry table if needed.
func (f *file) insertLocal(parentAddr int64, name string, addr int64) error {
	gh, err := f.readGroupHeader(parentAddr)
	if err != nil {
		return err
	}
	entries, err := f.readEntries(gh)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.name == name {
			return fmt.Errorf("%w: %s", errExists, name)
		}
	}
	entries = append(entries, groupEntry{name, addr})
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	blob := encodeEntries(entries)
	tableAddr := gh.tableAddr
	tableCap := gh.tableCap
	if int64(len(blob)) > tableCap {
		// Reallocate the table at EOF with double capacity. Note: the
		// allocation must be mirrored on all ranks; see createObject.
		tableCap *= 2
		for int64(len(blob)) > tableCap {
			tableCap *= 2
		}
		tableAddr = f.allocate(tableCap)
	}
	if err := f.mf.WriteRaw(blob, tableAddr); err != nil {
		return err
	}
	return f.writeGroupHeader(parentAddr, tableAddr, tableCap, int64(len(entries)))
}

func splitPath(path string) []string {
	var parts []string
	for _, p := range strings.Split(path, "/") {
		if p != "" {
			parts = append(parts, p)
		}
	}
	return parts
}

// metadataSync models the metadata-cache coherence protocol: every process
// exchanges a small cache digest with every other (an allgather), so the
// cost rises with the communicator size — one of the scaling drags the
// paper measures against parallel HDF5.
func (f *file) metadataSync() {
	digest := make([]byte, 128)
	f.comm.Allgather(digest)
}

// Close collectively closes the container.
func (f *file) Close() error {
	if f.closed {
		return mpiio.ErrClosed
	}
	if !f.ro {
		if f.comm.Rank() == 0 {
			if err := f.writeSuperblock(); err != nil {
				return err
			}
		}
	}
	if err := f.mf.Close(); err != nil {
		return err
	}
	f.closed = true
	return nil
}

// typeSize maps the nctype vocabulary (shared with the netCDF libraries for
// easy comparison) to element sizes.
func typeSize(t nctype.Type) int64 { return int64(t.Size()) }
