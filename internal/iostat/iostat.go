// Package iostat is the end-to-end I/O statistics layer. Every layer of the
// stack — the simulated parallel file system (internal/pfs), the MPI runtime
// (internal/mpi), the MPI-IO library (internal/mpiio) and the PnetCDF core
// (internal/core) — records into the same per-rank Stats object, so one
// benchmark run can answer the questions the paper answers qualitatively:
// how many requests were issued, how discontiguous they were, how much time
// went to seeks versus transfer, and how much extra data the sieving and
// two-phase optimizations moved to earn their contiguity. The per-request
// event record is internal/span's pfs_read/pfs_write leaves.
//
// The design is zero-overhead-by-default: layers hold a *Stats pointer that
// is nil unless a harness enables collection, and every recording method is
// a no-op on a nil receiver — a single predictable branch on the hot path.
// When enabled, counters are lock-free atomics, so one Stats may safely be
// shared across goroutines (it is per-rank in the benchmarks, but the
// file-system layer can be driven by many ranks at once and the counters
// stay exact under -race).
//
// Counter times are virtual time (see internal/mpi and internal/pfs),
// stored as integer nanoseconds so they reduce with the same min/max/sum
// machinery as byte and call counts.
package iostat

import "sync/atomic"

// Counter identifies one accumulated quantity. Counters are grouped by the
// layer that records them; the table writer prints them in this order.
type Counter int

// The counter set. Time-valued counters carry the Ns suffix and hold
// virtual nanoseconds.
const (
	// --- pfs: the simulated striped file system ---

	// PfsBytesRead / PfsBytesWritten are bytes moved to/from the I/O
	// servers (what the paper calls bytes "landed").
	PfsBytesRead Counter = iota
	PfsBytesWritten
	// PfsReadCalls / PfsWriteCalls count request batches.
	PfsReadCalls
	PfsWriteCalls
	// PfsReadExtents / PfsWriteExtents count discontiguous file extents
	// after merging, summed over requests; extents/call is the paper's
	// noncontiguity metric.
	PfsReadExtents
	PfsWriteExtents
	// PfsSeekTimeNs / PfsTransferTimeNs split the cost model's charge into
	// positioning (per-extent seeks, per-request overhead) and data
	// movement (bytes over server bandwidth).
	PfsSeekTimeNs
	PfsTransferTimeNs
	// PfsRMWBlocks / PfsRMWBytes count partially written stripe blocks and
	// the read-before-write bytes they cost (GPFS-style partial-block
	// commit).
	PfsRMWBlocks
	PfsRMWBytes
	// PfsFaultsInjected counts faults the injection layer delivered to this
	// rank's pfs requests (transient errors, latency spikes, crash points).
	// PfsRetries counts the attempts that resumed a request a transient
	// error cut, and PfsBackoffTimeNs the virtual time spent waiting before
	// them — every library's, since pfs is the one place a request resumes.
	PfsFaultsInjected
	PfsRetries
	PfsBackoffTimeNs

	// --- mpi: the message-passing runtime ---

	// MPIMsgsSent / MPIBytesSent count point-to-point payloads, including
	// those collectives are built from.
	MPIMsgsSent
	MPIBytesSent
	// MPICollectives counts collective operations entered on the
	// communicator (Barrier, Bcast, reductions, ...).
	MPICollectives

	// --- mpiio: the MPI-IO library ---

	// IOIndepReadCalls .. IOCollWriteCalls count data-access calls by mode.
	IOIndepReadCalls
	IOIndepWriteCalls
	IOCollReadCalls
	IOCollWriteCalls
	// IOBytesRead / IOBytesWritten are view-data bytes the application
	// asked MPI-IO to move (excluding raw header traffic).
	IOBytesRead
	IOBytesWritten
	// IORawBytesRead / IORawBytesWritten are header-path bytes moved with
	// ReadRaw/WriteRaw, bypassing the file view.
	IORawBytesRead
	IORawBytesWritten
	// IOReadExtents / IOWriteExtents count the file extents each request
	// resolved to before any optimization, summed over calls.
	IOReadExtents
	IOWriteExtents
	// IOSieveReads counts covering-window reads performed by read sieving;
	// IOSieveReadAmpBytes is the bytes those windows read beyond what the
	// caller asked for (the read amplification).
	IOSieveReads
	IOSieveReadAmpBytes
	// IOSieveRMW counts read-modify-write windows performed by write
	// sieving; IOSieveWriteAmpBytes is the bytes written beyond the
	// request (hole bytes rewritten with the window). The matching
	// window read-back shows up as PfsBytesRead.
	IOSieveRMW
	IOSieveWriteAmpBytes
	// IOTwoPhaseRounds counts collective-buffering rounds;
	// IOExchangeBytes is the payload shipped between ranks and
	// aggregators in phase 1 (and phase 2 of reads).
	IOTwoPhaseRounds
	IOExchangeBytes
	// IOReadTimeNs / IOWriteTimeNs are virtual wall time spent inside
	// MPI-IO data-access calls.
	IOReadTimeNs
	IOWriteTimeNs
	// IOPipelinedRounds counts the rounds of collectives that ran more than
	// one round — the ones whose aggregator I/O ran, in virtual time,
	// behind a neighbouring round's communication; IOOverlapTimeNs is the
	// virtual time that I/O spent in flight while the rank was doing other
	// work — a write behind's, from its bytes leaving the link to its end,
	// counted when it is drained (zero for a one-round read, settled at
	// once).
	IOPipelinedRounds
	IOOverlapTimeNs
	// IOCollAborts counts collective data-access calls that returned an
	// agreed error after the per-round error agreement (every rank of the
	// communicator counts the abort once).
	IOCollAborts
	// FTFailuresDetected counts rank-failure detections: one per rank per
	// revoked communicator it met (DESIGN.md §8).
	FTFailuresDetected

	// --- pnetcdf: the parallel netCDF core ---

	// NCCollPuts .. NCIndepGets count data-mode accesses by mode.
	NCCollPuts
	NCIndepPuts
	NCCollGets
	NCIndepGets
	// NCBytesPut / NCBytesGot are external-representation bytes moved by
	// put/get calls.
	NCBytesPut
	NCBytesGot
	// NCHeaderWriteBytes is the bytes the root wrote for the header: every
	// step of every commit (a journaled recommit writes the image three
	// times) and each numrecs update. NCHeaderBcastBytes is header bytes
	// broadcast at open.
	NCHeaderWriteBytes
	NCHeaderBcastBytes
	// NCNumRecsSyncs counts record-count reconciliations.
	NCNumRecsSyncs
	// NCHeaderCommits counts crash-consistent header commit sequences
	// (cdf.CommitHeader, either shape); NCHeaderRecoveries counts opens that
	// had to recover the header from the commit journal.
	NCHeaderCommits
	NCHeaderRecoveries
	// NCPutTimeNs / NCGetTimeNs are virtual wall time inside put/get calls.
	NCPutTimeNs
	NCGetTimeNs

	// NumCounters is the table size; keep it last.
	NumCounters
)

// IORetries is PfsRetries: MPI-IO retries nothing of its own (pfs resumes
// every request a fault cut), and the name stays only because the
// repository's benchmark reads it for its mpiio.retries row.
const IORetries = PfsRetries

// counterNames maps counters to their snake_case wire names (used in JSON
// and the stats table).
var counterNames = [NumCounters]string{
	PfsBytesRead:         "pfs_bytes_read",
	PfsBytesWritten:      "pfs_bytes_written",
	PfsReadCalls:         "pfs_read_calls",
	PfsWriteCalls:        "pfs_write_calls",
	PfsReadExtents:       "pfs_read_extents",
	PfsWriteExtents:      "pfs_write_extents",
	PfsSeekTimeNs:        "pfs_seek_time_ns",
	PfsTransferTimeNs:    "pfs_transfer_time_ns",
	PfsRMWBlocks:         "pfs_rmw_blocks",
	PfsRMWBytes:          "pfs_rmw_bytes",
	PfsFaultsInjected:    "pfs_faults_injected",
	PfsRetries:           "pfs_retries",
	PfsBackoffTimeNs:     "pfs_backoff_time_ns",
	MPIMsgsSent:          "mpi_msgs_sent",
	MPIBytesSent:         "mpi_bytes_sent",
	MPICollectives:       "mpi_collectives",
	IOIndepReadCalls:     "io_indep_read_calls",
	IOIndepWriteCalls:    "io_indep_write_calls",
	IOCollReadCalls:      "io_coll_read_calls",
	IOCollWriteCalls:     "io_coll_write_calls",
	IOBytesRead:          "io_bytes_read",
	IOBytesWritten:       "io_bytes_written",
	IORawBytesRead:       "io_raw_bytes_read",
	IORawBytesWritten:    "io_raw_bytes_written",
	IOReadExtents:        "io_read_extents",
	IOWriteExtents:       "io_write_extents",
	IOSieveReads:         "io_sieve_reads",
	IOSieveReadAmpBytes:  "io_sieve_read_amp_bytes",
	IOSieveRMW:           "io_sieve_rmw",
	IOSieveWriteAmpBytes: "io_sieve_write_amp_bytes",
	IOTwoPhaseRounds:     "io_two_phase_rounds",
	IOExchangeBytes:      "io_exchange_bytes",
	IOReadTimeNs:         "io_read_time_ns",
	IOWriteTimeNs:        "io_write_time_ns",
	IOPipelinedRounds:    "io_pipelined_rounds",
	IOOverlapTimeNs:      "io_overlap_ns",
	IOCollAborts:         "io_coll_aborts",
	FTFailuresDetected:   "ft_failures_detected",
	NCCollPuts:           "nc_coll_puts",
	NCIndepPuts:          "nc_indep_puts",
	NCCollGets:           "nc_coll_gets",
	NCIndepGets:          "nc_indep_gets",
	NCBytesPut:           "nc_bytes_put",
	NCBytesGot:           "nc_bytes_got",
	NCHeaderWriteBytes:   "nc_header_write_bytes",
	NCHeaderBcastBytes:   "nc_header_bcast_bytes",
	NCNumRecsSyncs:       "nc_numrecs_syncs",
	NCHeaderCommits:      "nc_header_commits",
	NCHeaderRecoveries:   "nc_header_recoveries",
	NCPutTimeNs:          "nc_put_time_ns",
	NCGetTimeNs:          "nc_get_time_ns",
}

// String returns the counter's snake_case name.
func (c Counter) String() string {
	if c < 0 || c >= NumCounters {
		return "unknown"
	}
	return counterNames[c]
}

// Layer returns the recording layer's short name ("pfs", "mpi", "mpiio",
// "pnetcdf").
func (c Counter) Layer() string {
	switch {
	case c <= PfsBackoffTimeNs:
		return "pfs"
	case c <= MPICollectives:
		return "mpi"
	case c <= FTFailuresDetected:
		return "mpiio"
	default:
		return "pnetcdf"
	}
}

// IsTime reports whether the counter holds virtual nanoseconds.
func (c Counter) IsTime() bool {
	switch c {
	case PfsSeekTimeNs, PfsTransferTimeNs, PfsBackoffTimeNs,
		IOReadTimeNs, IOWriteTimeNs, IOOverlapTimeNs,
		NCPutTimeNs, NCGetTimeNs:
		return true
	}
	return false
}

// IsBytes reports whether the counter holds bytes.
func (c Counter) IsBytes() bool {
	switch c {
	case PfsBytesRead, PfsBytesWritten, PfsRMWBytes, MPIBytesSent,
		IOBytesRead, IOBytesWritten, IORawBytesRead, IORawBytesWritten,
		IOSieveReadAmpBytes, IOSieveWriteAmpBytes, IOExchangeBytes,
		NCBytesPut, NCBytesGot, NCHeaderWriteBytes, NCHeaderBcastBytes:
		return true
	}
	return false
}

// Stats is one rank's counter set. The zero value is ready to use; a nil
// *Stats is a valid disabled collector (every method is a no-op), which is
// how the layers keep the stats-off path to a single pointer test.
type Stats struct {
	c [NumCounters]atomic.Int64
}

// New returns an empty, enabled counter set.
func New() *Stats { return &Stats{} }

// Add accumulates v into counter k. No-op on a nil receiver.
func (s *Stats) Add(k Counter, v int64) {
	if s == nil {
		return
	}
	s.c[k].Add(v)
}

// AddTime accumulates a virtual duration in seconds into a time counter,
// converting to nanoseconds. Negative durations are ignored (they would
// mean a clock went backwards; no layer does that, but stats must never
// corrupt a run). No-op on a nil receiver.
func (s *Stats) AddTime(k Counter, seconds float64) {
	if s == nil || seconds <= 0 {
		return
	}
	s.c[k].Add(int64(seconds * 1e9))
}

// Get returns counter k's current value (0 on a nil receiver).
func (s *Stats) Get(k Counter) int64 {
	if s == nil {
		return 0
	}
	return s.c[k].Load()
}

// Reset zeroes every counter.
func (s *Stats) Reset() {
	if s == nil {
		return
	}
	for i := range s.c {
		s.c[i].Store(0)
	}
}

// Snapshot is a point-in-time copy of a counter set.
type Snapshot [NumCounters]int64

// Snapshot copies the current counter values.
func (s *Stats) Snapshot() Snapshot {
	var out Snapshot
	if s == nil {
		return out
	}
	for i := range s.c {
		out[i] = s.c[i].Load()
	}
	return out
}
