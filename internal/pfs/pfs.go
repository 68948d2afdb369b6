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
// (DESIGN.md §1); all libraries above it move real bytes.
//
// The data plane is built not to convoy: the file table is behind an
// RWMutex, chunk data behind per-file lock shards (store.go), and the
// vectored entry points ReadAhead/WriteBehind accept an iovec so callers hand
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
	// ClientCache is the bytes of data writes one client handle may hold in
	// flight once they have crossed its link — GPFS's pagepool, the
	// write-behind cache (DESIGN.md §6). Zero means no cache: every write
	// is written through.
	ClientCache int64
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
	// writes of discardThreshold bytes or more vanish, smaller writes —
	// file headers, object metadata, group tables — are kept so the
	// libraries' metadata paths still function. Benchmarks over very large
	// synthetic files use it; tests never do.
	Discard bool
}

// discardThreshold is the bulk-data cutoff for Config.Discard.
const discardThreshold = 1 << 20

// BlueHorizon is the file system of SDSC Blue Horizon, the system of the
// paper's §5.1 scalability study (Figure 6): 12 GPFS I/O nodes, ~1.5 GB/s
// peak aggregate read bandwidth, writes substantially slower than reads (GPFS
// commit), and a per-client link that caps a single process in the low
// hundreds of MB/s — which is what bounds the serial netCDF baseline.
func BlueHorizon() Config {
	return Config{
		NumServers:     12,
		StripeSize:     256 << 10,
		SeekTime:       1.2e-3,
		ReadBW:         75e6,
		WriteBW:        22e6,
		ClientBW:       160e6,
		ClientCache:    64 << 20,
		NetLatency:     60e-6,
		PerReqOverhead: 200e-6,
		PipeChunk:      4 << 20,
		OpenCost:       3e-3,
		SyncCost:       1.5e-3,
	}
}

// Frost is the file system of ASCI White Frost, the §5.2 FLASH platform
// (Figure 7): a 2-node GPFS I/O system. The small I/O-server pool is why the
// FLASH curves flatten near ~100 MB/s.
func Frost() Config {
	return Config{
		NumServers:     2,
		StripeSize:     256 << 10,
		SeekTime:       1.0e-3,
		ReadBW:         90e6,
		WriteBW:        60e6,
		ClientBW:       160e6,
		ClientCache:    64 << 20,
		NetLatency:     80e-6,
		PerReqOverhead: 250e-6,
		PipeChunk:      4 << 20,
		OpenCost:       3e-3,
		SyncCost:       1.5e-3,
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
	return &FS{
		cfg:   cfg,
		files: map[string]*fileData{},
		busy:  make([]float64, cfg.NumServers),
	}
}

// Config returns the file system's configuration.
func (fs *FS) Config() Config { return fs.cfg }

// SetFault installs (or with nil removes) the fault injector consulted by
// every read/write request on this file system. A transient fault cuts a
// request at the unit that failed and the request resumes from the cut
// (File.request), so it either moves every byte once or fails for good.
func (fs *FS) SetFault(in *fault.Injector) { fs.inj = in }

// Fault returns the installed injector (nil when faults are off).
func (fs *FS) Fault() *fault.Injector { return fs.inj }

// File is an open handle. Handles are cheap; all handles to one name share
// the underlying data. Every request moves its bytes before it returns and
// reports its virtual completion time: a caller that overlaps a request with
// other work does so in virtual time, by advancing its clock to that
// completion later (DESIGN.md §6), never by leaving the request running.
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
// request batch — each attempt of a request that a fault cut and resumed —
// records one pfs_read/pfs_write leaf span carrying the bytes it moved and
// its first file offset.
func (f *File) SetSpans(r *span.Recorder) { f.spans = r }

// Create opens name, truncating it to zero length, and charges OpenCost.
func (fs *FS) Create(name string, t float64) (*File, float64) {
	fs.mu.Lock()
	fd := &fileData{}
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

// ResetClock zeroes the server queues; harnesses call it between measured
// phases so one phase's backlog does not leak into the next.
func (fs *FS) ResetClock() {
	fs.srvMu.Lock()
	for i := range fs.busy {
		fs.busy[i] = 0
	}
	fs.srvMu.Unlock()
}

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
// completion time. Errors are injected faults, and permanent (see request).
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

// cut splits segs at payload byte n, 0 <= n < their total: head holds the
// first n bytes, rest the others.
func cut(segs []Segment, n int64) (head, rest []Segment) {
	for i, s := range segs {
		if n < s.Len {
			head = segs[:i:i]
			if n > 0 {
				head = append(head, Segment{Off: s.Off, Len: n})
			}
			return head, append([]Segment{{Off: s.Off + n, Len: s.Len - n}}, segs[i+1:]...)
		}
		n -= s.Len
	}
	return segs, nil
}

// WriteVec writes the segments, taking consecutive bytes from the iovec, as
// one request batch. Segments should be sorted and non-overlapping; the cost
// model charges one seek per (merged) extent per server, however the iovec
// divides the bytes — it only removes the caller's coalescing copy.
// The iovec's total length must equal the segments' total length; entry
// boundaries need not align with segment boundaries. Under fault injection
// the request may take more than one batch (see request).
func (f *File) WriteVec(t float64, segs []Segment, iov [][]byte) (float64, error) {
	_, done, err := f.WriteBehind(t, segs, iov)
	return done, err
}

// WriteBehind is WriteVec for a client that caches its writes: beside the
// completion time it reports left, the time the request's bytes have left
// the client link — the arrival of its last pipelining window at the
// servers. The charge is WriteVec's; a failed request reports left = done.
func (f *File) WriteBehind(t float64, segs []Segment, iov [][]byte) (left, done float64, err error) {
	return f.request(fault.OpWrite, t, segs, iov)
}

// storeWriteVec lands the segments: each takes the next bytes at cur.
func (f *File) storeWriteVec(segs []Segment, cur *iovCursor) {
	for _, s := range segs {
		f.fd.store.writeAt(s.Off, s.Len, cur, f.fs.cfg.Discard && s.Len >= discardThreshold)
	}
}

// ReadVec reads the segments into consecutive bytes of the iovec as one
// request batch. The iovec's total length must equal the segments' total
// length; entry boundaries need not align with segment boundaries.
func (f *File) ReadVec(t float64, segs []Segment, iov [][]byte) (float64, error) {
	_, done, err := f.ReadAhead(t, segs, iov)
	return done, err
}

// ReadAhead is ReadVec for a client that keeps reads in flight: beside the
// completion time it reports left, the time the request has left the client
// link — the arrival of its last pipelining window at the servers, as
// WriteBehind reports it. Every read of the package comes through here: the
// bytes land in the iovec and the request is charged and counted before it
// returns, whenever the caller's clock takes its end. A failed request
// reports left = done.
func (f *File) ReadAhead(t float64, segs []Segment, iov [][]byte) (left, done float64, err error) {
	return f.request(fault.OpRead, t, segs, iov)
}

// The resume schedule of a request a transient fault cut: it goes on from
// the cut after a wait of resumeWait, doubling up to resumeWaitMax, and
// gives up once more than maxStalls attempts in a row have moved nothing.
const (
	maxStalls     = 8
	resumeWait    = 1e-3  // seconds
	resumeWaitMax = 50e-3 // seconds
)

// request is every read and write of the package, and the stack's one
// retry loop: check the iovec against the segments, then attempt the
// request (move). Each attempt consults the fault injector. A transient
// fault cuts the attempt at the unit that failed, like a POSIX short count:
// the bytes before the cut move, and the remainder is attempted again from
// the cut after a backoff, so no byte moves twice and a faulted request
// counts the clean one's bytes. A request that stalls — more than maxStalls
// attempts in a row that moved nothing — fails with
// fault.ErrRetriesExhausted; a crash point fails it at once with
// fault.ErrCrashed, a write truncating the file when the crash was armed
// so. left is the last attempt's; a failed request reports left = done.
func (f *File) request(op fault.Op, t float64, segs []Segment, iov [][]byte) (left, done float64, err error) {
	var total int64
	for _, s := range segs {
		total += s.Len
	}
	if n := iovTotal(iov); n != total {
		name := "writevec"
		if op == fault.OpRead {
			name = "readvec"
		}
		return t, t, fmt.Errorf("pfs: %s iovec holds %d bytes, segments need %d", name, n, total)
	}
	cur := iovCursor{iov: iov} // where the next attempt's bytes begin
	stalls, wait := 0, resumeWait
	for {
		out := f.fs.inj.Decide(f.rank, op, firstOff(segs), total) // nil: no fault
		if out.Err != nil || out.Delay > 0 {
			f.stats.Add(iostat.PfsFaultsInjected, 1)
		}
		if out.Err == nil {
			left, done = f.move(op, t, t+out.Delay, segs, &cur, total)
			return left, done, nil
		}
		head, rest := cut(segs, out.N)
		_, done = f.move(op, t, t+out.Delay, head, &cur, out.N)
		if out.TruncateTo >= 0 {
			f.Truncate(out.TruncateTo)
		}
		if out.Err == fault.ErrCrashed {
			return done, done, out.Err
		}
		if out.N > 0 {
			stalls, wait = 0, resumeWait
		} else if stalls++; stalls > maxStalls {
			return done, done, fmt.Errorf("%w: %d retries in a row moved nothing: %v", fault.ErrRetriesExhausted, maxStalls, out.Err)
		}
		f.stats.Add(iostat.PfsRetries, 1)
		f.stats.AddTime(iostat.PfsBackoffTimeNs, wait)
		t = done + wait
		wait = min(2*wait, resumeWaitMax)
		segs, total = rest, total-out.N
	}
}

// move is one attempt of a request, issued at t0 and served from t (later by
// an injected latency spike): it moves the n bytes of segs from or into the
// iovec at cur, advancing it past them, charges the cost model, and counts
// and records one request batch. It returns when the attempt's bytes left
// the client link and when it completed.
func (f *File) move(op fault.Op, t0, t float64, segs []Segment, cur *iovCursor, n int64) (left, done float64) {
	read := op == fault.OpRead
	phase, calls, bytes, exts := span.PFSWrite, iostat.PfsWriteCalls, iostat.PfsBytesWritten, iostat.PfsWriteExtents
	if read {
		phase, calls, bytes, exts = span.PFSRead, iostat.PfsReadCalls, iostat.PfsBytesRead, iostat.PfsReadExtents
		f.storeReadVec(segs, cur)
	} else {
		f.storeWriteVec(segs, cur)
	}
	done, left, extents := f.fs.charge(t, segs, read, f.stats)
	f.count(calls, bytes, exts, n, extents)
	f.spans.Record(phase, -1, t0, done, n, firstOff(segs))
	return left, done
}

// storeReadVec fills the iovec at cur from the segments, in order.
func (f *File) storeReadVec(segs []Segment, cur *iovCursor) {
	for _, s := range segs {
		off := s.Off
		for remain := s.Len; remain > 0; {
			p := cur.next(remain)
			f.fd.store.readAt(p, off)
			off += int64(len(p))
			remain -= int64(len(p))
		}
	}
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
