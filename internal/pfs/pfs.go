// Package pfs simulates a striped parallel file system in the spirit of the
// GPFS installations used in the paper's evaluation (SDSC Blue Horizon with
// 12 I/O nodes, ASCI White Frost with a 2-node I/O system).
//
// Correctness and performance are deliberately separated:
//
//   - Data is stored for real. Every write lands in sparse 256 KiB chunks
//     and every read returns exactly the bytes written, so the libraries
//     built on top are verified end to end, byte for byte.
//
//   - Time is virtual. Each I/O call takes the caller's virtual time and
//     returns the completion time under a cost model with a fixed pool of
//     I/O servers: a request is charged network injection on the client
//     link (pipelined in windows), then per-server seek time per
//     discontiguous extent plus bytes/bandwidth, serialized on each
//     server's queue. Aggregate bandwidth therefore saturates at
//     NumServers x per-server bandwidth no matter how many clients issue
//     I/O — the effect behind the flattening curves in the paper's
//     Figure 6 — while many small discontiguous requests drown in seek
//     time — the effect that makes collective I/O win.
//
// The cost model is the substitution for the paper's physical disk arrays
// (DESIGN.md §2); all libraries above it move real bytes.
//
// The data plane is built not to convoy: the file table is behind an
// RWMutex, chunk data behind per-file lock shards (store.go), and the
// vectored entry points ReadVec/WriteVec accept an iovec so callers hand
// their round buffers down without a coalescing copy. Only the cost model's
// server queues (srvMu) are a single lock, because they model a genuinely
// shared resource.
package pfs

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"pnetcdf/internal/fault"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/span"
)

// Segment is one contiguous file extent of an I/O request: the same type as
// a flattened datatype's run, so the extents a file view resolves to are the
// request list itself and no layer converts between the two.
type Segment = mpitype.Segment

// Config describes the simulated storage system.
type Config struct {
	// NumServers is the number of I/O servers (disks) the file system
	// stripes across.
	NumServers int
	// StripeSize is the striping unit in bytes.
	StripeSize int64
	// SeekTime is charged per discontiguous extent per server per request.
	SeekTime float64
	// ReadBW and WriteBW are per-server bandwidths in bytes/second.
	ReadBW  float64
	WriteBW float64
	// ClientBW is the bandwidth of one client's link to the I/O system.
	ClientBW float64
	// NetLatency is the one-way client/server request latency.
	NetLatency float64
	// PerReqOverhead is a fixed per-server charge per request batch
	// (request handling, metadata lookup).
	PerReqOverhead float64
	// PipeChunk is the pipelining window: client injection and server
	// service overlap at this granularity.
	PipeChunk int64
	// OpenCost is the virtual time to open or create a file.
	OpenCost float64
	// SyncCost is the virtual time for a flush barrier.
	SyncCost float64
	// Discard, when true, skips retention of bulk data (timing only):
	// writes of DiscardThreshold bytes or more vanish, smaller writes —
	// file headers, object metadata, group tables — are kept so the
	// libraries' metadata paths still function. Benchmarks over very large
	// synthetic files use it; tests never do.
	Discard bool
	// DiscardThreshold is the bulk-data cutoff for Discard (default 1 MiB).
	DiscardThreshold int64
}

// DefaultConfig resembles the SDSC system in the paper: 12 I/O nodes and an
// aggregate peak of roughly 1.5 GB/s, with writes considerably slower than
// reads (GPFS write commit).
func DefaultConfig() Config {
	return Config{
		NumServers:     12,
		StripeSize:     256 << 10,
		SeekTime:       1.5e-3,
		ReadBW:         125e6,
		WriteBW:        30e6,
		ClientBW:       220e6,
		NetLatency:     60e-6,
		PerReqOverhead: 150e-6,
		PipeChunk:      4 << 20,
		OpenCost:       2e-3,
		SyncCost:       1e-3,
	}
}

const chunkSize = 256 << 10

// stackServers is the largest server count whose cost-model tables charge
// keeps on the stack: every machine the benchmarks model has 12 or 2.
const stackServers = 16

// FS is one simulated file system instance.
type FS struct {
	cfg Config

	// mu guards the name -> file table. Lookups (Open, Exists) take the
	// read side so concurrent rank goroutines opening handles do not
	// serialize; only Create/Remove take the write side.
	mu    sync.RWMutex
	files map[string]*fileData

	srvMu sync.Mutex
	busy  []float64 // per-server busy-until, virtual seconds

	// inj injects faults into every handle's I/O (nil = faults off).
	inj *fault.Injector
}

type fileData struct {
	name  string
	store chunkStore
	rmw   rangeLock // read-modify-write range lock for data sieving writes
}

// New creates a file system with the given configuration.
func New(cfg Config) *FS {
	if cfg.NumServers < 1 {
		cfg.NumServers = 1
	}
	if cfg.StripeSize < 1 {
		cfg.StripeSize = 256 << 10
	}
	if cfg.PipeChunk < 1 {
		cfg.PipeChunk = 4 << 20
	}
	if cfg.DiscardThreshold < 1 {
		cfg.DiscardThreshold = 1 << 20
	}
	return &FS{
		cfg:   cfg,
		files: map[string]*fileData{},
		busy:  make([]float64, cfg.NumServers),
	}
}

// Config returns the file system's configuration.
func (fs *FS) Config() Config { return fs.cfg }

// SetFault installs (or with nil removes) the fault injector consulted by
// every read/write request on this file system. The injector's short-read
// rate is ignored at this layer: pfs requests complete fully or fail, and
// short transfers are exercised at the store level (fault.FaultyStore).
func (fs *FS) SetFault(in *fault.Injector) { fs.inj = in }

// Fault returns the installed injector (nil when faults are off).
func (fs *FS) Fault() *fault.Injector { return fs.inj }

// PeakReadBW returns the aggregate read bandwidth ceiling in bytes/second.
func (fs *FS) PeakReadBW() float64 { return float64(fs.cfg.NumServers) * fs.cfg.ReadBW }

// PeakWriteBW returns the aggregate write bandwidth ceiling in bytes/second.
func (fs *FS) PeakWriteBW() float64 { return float64(fs.cfg.NumServers) * fs.cfg.WriteBW }

// File is an open handle. Handles are cheap; all handles to one name share
// the underlying data. Every request moves its bytes before it returns and
// reports its virtual completion time: a caller that overlaps a request with
// other work does so in virtual time, by advancing its clock to that
// completion later (DESIGN.md §13), never by leaving the request running.
type File struct {
	fs *FS
	fd *fileData

	// stats/spans record this handle's I/O (nil = disabled). A handle is
	// owned by one rank in the parallel libraries, so the per-handle
	// collectors are the rank's collectors. rank keys fault injection.
	stats *iostat.Stats
	spans *span.Recorder
	rank  int
}

// SetStats installs the handle's iostat counters (nil disables them) and
// names the rank that owns it, which fault injection keys on (use -1
// outside an MPI context).
func (f *File) SetStats(s *iostat.Stats, rank int) {
	f.stats, f.rank = s, rank
}

// SetSpans installs the handle's span recorder (nil = disabled). Every
// request batch — including attempts killed by fault injection, which a
// retry above re-issues — records one pfs_read/pfs_write leaf span carrying
// the request's first file offset.
func (f *File) SetSpans(r *span.Recorder) { f.spans = r }

// Create opens name, truncating it to zero length, and charges OpenCost.
func (fs *FS) Create(name string, t float64) (*File, float64) {
	fs.mu.Lock()
	fd := &fileData{name: name}
	fs.files[name] = fd
	fs.mu.Unlock()
	return &File{fs: fs, fd: fd}, t + fs.cfg.OpenCost
}

// Open opens an existing file and charges OpenCost.
func (fs *FS) Open(name string, t float64) (*File, float64, error) {
	fs.mu.RLock()
	fd := fs.files[name]
	fs.mu.RUnlock()
	if fd == nil {
		return nil, t, fmt.Errorf("pfs: open %s: no such file", name)
	}
	return &File{fs: fs, fd: fd}, t + fs.cfg.OpenCost, nil
}

// Exists reports whether name exists.
func (fs *FS) Exists(name string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.files[name] != nil
}

// Remove deletes a file.
func (fs *FS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.files[name] == nil {
		return fmt.Errorf("pfs: remove %s: no such file", name)
	}
	delete(fs.files, name)
	return nil
}

// Names returns all file names, sorted.
func (fs *FS) Names() []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var out []string
	for n := range fs.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ResetClock zeroes the server queues; harnesses call it between measured
// phases so one phase's backlog does not leak into the next.
func (fs *FS) ResetClock() {
	fs.srvMu.Lock()
	for i := range fs.busy {
		fs.busy[i] = 0
	}
	fs.srvMu.Unlock()
}

// Name returns the file's name.
func (f *File) Name() string { return f.fd.name }

// Size returns the file's current size in bytes.
func (f *File) Size() int64 { return f.fd.store.size.Load() }

// Truncate sets the file size, discarding data beyond it.
func (f *File) Truncate(size int64) { f.fd.store.truncate(size) }

// LockRMW acquires the file's read-modify-write range lock over
// [off, off+n). ROMIO-style data sieving writes take it around their
// read/modify/write window so concurrent sieving writers to overlapping
// regions do not lose updates; writers to disjoint windows proceed in
// parallel.
func (f *File) LockRMW(off, n int64) { f.fd.rmw.lock(off, n) }

// UnlockRMW releases a range claimed with LockRMW (same off and n).
func (f *File) UnlockRMW(off, n int64) { f.fd.rmw.unlock(off, n) }

// WriteAt writes p at off, issued at virtual time t, and returns the
// completion time. Errors are injected faults: fault.IsTransient errors may
// clear on a re-issue (writes are idempotent — re-issuing rewrites the full
// range), others are permanent.
func (f *File) WriteAt(t float64, p []byte, off int64) (float64, error) {
	return f.WriteVec(t, []Segment{{Off: off, Len: int64(len(p))}}, [][]byte{p})
}

// ReadAt reads len(p) bytes at off, issued at virtual time t, and returns
// the completion time.
func (f *File) ReadAt(t float64, p []byte, off int64) (float64, error) {
	return f.ReadVec(t, []Segment{{Off: off, Len: int64(len(p))}}, [][]byte{p})
}

// ReadV reads the segments into consecutive bytes of dst as one request
// batch.
func (f *File) ReadV(t float64, segs []Segment, dst []byte) (float64, error) {
	return f.ReadVec(t, segs, [][]byte{dst})
}

// inject consults the file system's injector for one request batch and
// returns its outcome. total is the payload size; off identifies the batch
// by its first byte.
func (f *File) inject(op fault.Op, segs []Segment, total int64) fault.Outcome {
	off := int64(0)
	if len(segs) > 0 {
		off = segs[0].Off
	}
	return f.fs.inj.Decide(f.rank, op, off, total)
}

// iovTotal sums an iovec's byte count.
func iovTotal(iov [][]byte) int64 {
	var n int64
	for _, p := range iov {
		n += int64(len(p))
	}
	return n
}

// iovCursor walks an iovec as one logical byte stream.
type iovCursor struct {
	iov []([]byte)
	i   int // current iovec entry
	pos int // consumed bytes within entry i
}

// next returns the longest contiguous piece available at the cursor, at most
// n bytes, and advances past it.
func (c *iovCursor) next(n int64) []byte {
	for c.i < len(c.iov) && c.pos == len(c.iov[c.i]) {
		c.i++
		c.pos = 0
	}
	p := c.iov[c.i][c.pos:]
	if int64(len(p)) > n {
		p = p[:n]
	}
	c.pos += len(p)
	return p
}

// skip advances the cursor past n bytes.
func (c *iovCursor) skip(n int64) {
	for n > 0 {
		n -= int64(len(c.next(n)))
	}
}

// WriteVec writes the segments, taking consecutive bytes from the iovec, as
// one request batch. Segments should be sorted and non-overlapping; the cost
// model charges one seek per (merged) extent per server, however the iovec
// divides the bytes — it only removes the caller's coalescing copy.
// The iovec's total length must equal the segments' total length; entry
// boundaries need not align with segment boundaries.
//
// Under fault injection a transient error leaves an injector-chosen prefix
// of the payload on disk (the bytes that moved before the request died); a
// re-issue of the identical request is safe and rewrites the full range. An
// armed crash point keeps only the bytes before the crash byte, optionally
// truncates the file, and fails permanently with fault.ErrCrashed.
func (f *File) WriteVec(t float64, segs []Segment, iov [][]byte) (float64, error) {
	_, done, err := f.WriteBehind(t, segs, iov)
	return done, err
}

// WriteBehind is WriteVec for a client that caches its writes: beside the
// completion time it reports left, the time the request's bytes have left
// the client link — the arrival of its last pipelining window at the
// servers. The charge is WriteVec's; a failed attempt reports left = done.
func (f *File) WriteBehind(t float64, segs []Segment, iov [][]byte) (left, done float64, err error) {
	var total int64
	for _, s := range segs {
		total += s.Len
	}
	if n := iovTotal(iov); n != total {
		return t, t, fmt.Errorf("pfs: writevec iovec holds %d bytes, segments need %d", n, total)
	}
	t0 := t
	if f.fs.inj != nil {
		out := f.inject(fault.OpWrite, segs, total)
		t += out.Delay
		if out.Err != nil {
			f.storeWriteVec(segs, iov, out.N)
			if out.TruncateTo >= 0 {
				f.Truncate(out.TruncateTo)
			}
			f.stats.Add(iostat.PfsFaultsInjected, 1)
			done := t + f.fs.cfg.NetLatency
			f.spans.Record(span.PFSWrite, -1, t0, done, out.N, firstOff(segs))
			return done, done, out.Err
		}
		if out.Delay > 0 {
			f.stats.Add(iostat.PfsFaultsInjected, 1)
		}
	}
	f.storeWriteVec(segs, iov, total)
	done, left, extents := f.fs.charge(t, segs, false, f.stats)
	f.count(iostat.PfsWriteCalls, iostat.PfsBytesWritten, iostat.PfsWriteExtents, total, extents)
	f.spans.Record(span.PFSWrite, -1, t0, done, total, firstOff(segs))
	return left, done, nil
}

// storeWriteVec lands the first n bytes of the payload: each segment takes
// the next bytes of the iovec until n bytes have landed. A completed write
// lands all of them; a faulted one the prefix the injector chose (out.N: the
// bytes that moved before a transient error, or the distance from the first
// segment's start to a crash byte), byte-exact within the segment it cuts.
func (f *File) storeWriteVec(segs []Segment, iov [][]byte, n int64) {
	cur := iovCursor{iov: iov}
	for _, s := range segs {
		if n <= 0 {
			return
		}
		k := min(s.Len, n)
		f.fd.store.writeAt(s.Off, k, &cur, f.fs.cfg.Discard && s.Len >= f.fs.cfg.DiscardThreshold)
		n -= k
	}
}

// ReadVec reads the segments into consecutive bytes of the iovec as one
// request batch. The iovec's total length must equal the segments' total
// length; entry boundaries need not align with segment boundaries.
func (f *File) ReadVec(t float64, segs []Segment, iov [][]byte) (float64, error) {
	var total int64
	for _, s := range segs {
		total += s.Len
	}
	if n := iovTotal(iov); n != total {
		return t, fmt.Errorf("pfs: readvec iovec holds %d bytes, segments need %d", n, total)
	}
	t0 := t
	if f.fs.inj != nil {
		out := f.inject(fault.OpRead, segs, total)
		t += out.Delay
		if out.Err != nil {
			f.stats.Add(iostat.PfsFaultsInjected, 1)
			done := t + f.fs.cfg.NetLatency
			f.spans.Record(span.PFSRead, -1, t0, done, 0, firstOff(segs))
			return done, out.Err
		}
		if out.Delay > 0 {
			f.stats.Add(iostat.PfsFaultsInjected, 1)
		}
	}
	cur := iovCursor{iov: iov}
	for _, s := range segs {
		off := s.Off
		for remain := s.Len; remain > 0; {
			p := cur.next(remain)
			f.fd.store.readAt(p, off)
			off += int64(len(p))
			remain -= int64(len(p))
		}
	}
	done, _, extents := f.fs.charge(t, segs, true, f.stats)
	f.count(iostat.PfsReadCalls, iostat.PfsBytesRead, iostat.PfsReadExtents, total, extents)
	f.spans.Record(span.PFSRead, -1, t0, done, total, firstOff(segs))
	return done, nil
}

// count accumulates one request batch's counters.
func (f *File) count(calls, bytes, exts iostat.Counter, total int64, extents int) {
	if f.stats == nil {
		return
	}
	f.stats.Add(calls, 1)
	f.stats.Add(bytes, total)
	f.stats.Add(exts, int64(extents))
}

// firstOff is a request's first file offset, -1 for an empty one.
func firstOff(segs []Segment) int64 {
	if len(segs) == 0 {
		return -1
	}
	return segs[0].Off
}

// Sync flushes; a fixed-cost barrier against all servers.
func (f *File) Sync(t float64) float64 {
	fs := f.fs
	fs.srvMu.Lock()
	defer fs.srvMu.Unlock()
	done := t + fs.cfg.SyncCost
	for i := range fs.busy {
		if fs.busy[i] > done {
			done = fs.busy[i]
		}
	}
	return done + fs.cfg.NetLatency
}

// charge applies the cost model for one request batch issued at t and
// returns the completion time, the time the last window has crossed the
// client link, and the number of merged extents. When st is
// non-nil it is credited with the seek/transfer time split and the
// partial-block read-modify-write penalty the model charged.
func (fs *FS) charge(t float64, segs []Segment, read bool, st *iostat.Stats) (done, left float64, merged int) {
	cfg := fs.cfg
	var total int64
	for _, s := range segs {
		total += s.Len
	}
	nMerged := 0
	if total == 0 {
		forEachMerged(segs, func(Segment) { nMerged++ })
		return t + cfg.NetLatency, t + cfg.NetLatency, nMerged
	}
	// Per-server extent counts, byte totals and read-before-write charges;
	// for writes, also the distinct partially-covered stripe blocks, which
	// cost a read-modify-write on GPFS-class systems (the reason ROMIO
	// aligns collective-buffering file domains to the stripe size). The
	// tables live on the stack up to stackServers servers.
	ns := int64(cfg.NumServers)
	var extBuf, bytesBuf [stackServers]int64
	var rmwBuf [stackServers]float64
	extents, bytes, rmwExtra := extBuf[:], bytesBuf[:], rmwBuf[:]
	if cfg.NumServers > stackServers {
		extents, bytes, rmwExtra = make([]int64, ns), make([]int64, ns), make([]float64, ns)
	}
	// The merged extents ascend, and so do their partial blocks: a block
	// equal to the last one counted is the same block again (one extent's
	// ragged head and tail, or the tail of one extent and the head of the
	// next), so comparing with it counts each block once.
	rmwBlocks, lastRMW := int64(0), int64(-1)
	partial := func(blk int64) {
		if blk == lastRMW {
			return
		}
		lastRMW = blk
		rmwBlocks++
		// The block's read-before-write, charged to its server.
		rmwExtra[blk%ns] += cfg.SeekTime + float64(cfg.StripeSize)/cfg.ReadBW
	}
	forEachMerged(segs, func(s Segment) {
		nMerged++
		if s.Len == 0 {
			return
		}
		first := s.Off / cfg.StripeSize
		last := (s.Off + s.Len - 1) / cfg.StripeSize
		if !read {
			if s.Off%cfg.StripeSize != 0 {
				partial(first)
			}
			if (s.Off+s.Len)%cfg.StripeSize != 0 {
				partial(last)
			}
		}
		for srv := int64(0); srv < ns; srv++ {
			cnt := countCongruent(first, last, srv, ns)
			if cnt == 0 {
				continue
			}
			extents[srv]++
			b := cnt * cfg.StripeSize
			if first%ns == srv {
				b -= s.Off - first*cfg.StripeSize
			}
			if last%ns == srv {
				b -= (last+1)*cfg.StripeSize - (s.Off + s.Len)
			}
			bytes[srv] += b
		}
	})
	bw := cfg.WriteBW
	if read {
		bw = cfg.ReadBW
	}
	if st != nil {
		var seek, xfer float64
		for srv := 0; srv < cfg.NumServers; srv++ {
			if bytes[srv] == 0 {
				continue
			}
			seek += float64(extents[srv])*cfg.SeekTime + cfg.PerReqOverhead
			xfer += float64(bytes[srv]) / bw
		}
		// Partial-block penalty: one seek plus one stripe read per block.
		seek += float64(rmwBlocks) * cfg.SeekTime
		xfer += float64(rmwBlocks) * float64(cfg.StripeSize) / cfg.ReadBW
		st.AddTime(iostat.PfsSeekTimeNs, seek)
		st.AddTime(iostat.PfsTransferTimeNs, xfer)
		st.Add(iostat.PfsRMWBlocks, rmwBlocks)
		st.Add(iostat.PfsRMWBytes, rmwBlocks*cfg.StripeSize)
	}
	// Pipeline the client link against the server queues in windows.
	nWindows := (total + cfg.PipeChunk - 1) / cfg.PipeChunk
	fs.srvMu.Lock()
	defer fs.srvMu.Unlock()
	complete, arrive := t, t
	for w := int64(0); w < nWindows; w++ {
		// Client has injected (w+1) windows by this time.
		injected := (w + 1) * cfg.PipeChunk
		if injected > total {
			injected = total
		}
		arrive = t + cfg.NetLatency + float64(injected)/cfg.ClientBW
		for srv := 0; srv < cfg.NumServers; srv++ {
			if bytes[srv] == 0 {
				continue
			}
			service := float64(bytes[srv]) / float64(nWindows) / bw
			if w == 0 {
				service += cfg.PerReqOverhead + float64(extents[srv])*cfg.SeekTime + rmwExtra[srv]
			}
			start := math.Max(arrive, fs.busy[srv])
			fs.busy[srv] = start + service
			if fs.busy[srv] > complete {
				complete = fs.busy[srv]
			}
		}
	}
	return complete + cfg.NetLatency, arrive, nMerged
}

// forEachMerged visits the coalesced extents of segs (adjacent or
// overlapping segments merged) so the seek charge reflects true
// discontiguity. The common case — callers pass sorted segments — streams
// with no allocation; unsorted input falls back to a sorted copy.
func forEachMerged(segs []Segment, fn func(Segment)) {
	if len(segs) == 0 {
		return
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].Off < segs[i-1].Off {
			sorted := make([]Segment, len(segs))
			copy(sorted, segs)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i].Off < sorted[j].Off })
			segs = sorted
			break
		}
	}
	cur := segs[0]
	for _, s := range segs[1:] {
		if s.Off <= cur.Off+cur.Len {
			if end := s.Off + s.Len; end > cur.Off+cur.Len {
				cur.Len = end - cur.Off
			}
		} else {
			fn(cur)
			cur = s
		}
	}
	fn(cur)
}

// countCongruent counts integers in [a, b] congruent to r mod m.
func countCongruent(a, b, r, m int64) int64 {
	if b < a {
		return 0
	}
	// First k >= a with k ≡ r (mod m).
	k := a + ((r-a)%m+m)%m
	if k > b {
		return 0
	}
	return (b-k)/m + 1
}
