package span

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
)

// Gatherer is the slice of the MPI communicator the merge needs; *mpi.Comm
// satisfies it (same shape as iostat.Gatherer — span sits below mpi in the
// import graph, so it cannot name the concrete type).
type Gatherer interface {
	Rank() int
	Size() int
	Gather(root int, data []byte) [][]byte
}

// Gather collects every rank's spans to rank 0 and returns them merged,
// sorted by (Rank, ID), together with the total number of spans dropped
// across all ranks. Non-root ranks receive (nil, 0). Ranks with a nil
// recorder contribute an empty trace; uneven span counts across ranks are
// fine. Timestamps are NOT adjusted for cross-rank clock skew — the
// analyses in critical.go deliberately use only within-rank durations.
func Gather(c Gatherer, r *Recorder) ([]Span, int64) {
	blob := encodeSpans(r.Spans(), r.Dropped())
	parts := c.Gather(0, blob)
	if c.Rank() != 0 {
		return nil, 0
	}
	var merged []Span
	var dropped int64
	for rank, p := range parts {
		spans, d, err := decodeSpans(p)
		if err != nil {
			// A malformed blob means a bug in this package, not user input;
			// surface it as an impossible-to-miss sentinel span.
			merged = append(merged, Span{Rank: rank, Phase: "_decode_error"})
			continue
		}
		merged = append(merged, spans...)
		dropped += d
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Rank != merged[j].Rank {
			return merged[i].Rank < merged[j].Rank
		}
		return merged[i].ID < merged[j].ID
	})
	return merged, dropped
}

// encodeSpans serializes spans plus the dropped count: a fixed header then
// fixed-width fields and length-prefixed phase strings, little-endian.
func encodeSpans(spans []Span, dropped int64) []byte {
	n := 16 // count + dropped
	for _, s := range spans {
		n += 8*8 + 8 + len(s.Phase) // 7 int64/float64, rank, phase len+bytes
	}
	buf := make([]byte, 0, n)
	buf = appendU64(buf, uint64(len(spans)))
	buf = appendU64(buf, uint64(dropped))
	for _, s := range spans {
		buf = appendU64(buf, uint64(s.ID))
		buf = appendU64(buf, uint64(s.Parent))
		buf = appendU64(buf, uint64(int64(s.Rank)))
		buf = appendU64(buf, uint64(s.Round))
		buf = appendU64(buf, uint64(s.Bytes))
		buf = appendU64(buf, uint64(s.Off))
		buf = appendU64(buf, math.Float64bits(s.Start))
		buf = appendU64(buf, math.Float64bits(s.End))
		buf = appendU64(buf, uint64(len(s.Phase)))
		buf = append(buf, s.Phase...)
	}
	return buf
}

func decodeSpans(buf []byte) ([]Span, int64, error) {
	u64 := func() (uint64, error) {
		if len(buf) < 8 {
			return 0, fmt.Errorf("span: short blob")
		}
		v := binary.LittleEndian.Uint64(buf)
		buf = buf[8:]
		return v, nil
	}
	count, err := u64()
	if err != nil {
		return nil, 0, err
	}
	droppedU, err := u64()
	if err != nil {
		return nil, 0, err
	}
	if count > uint64(len(buf)) { // each span takes >1 byte; cheap sanity bound
		return nil, 0, fmt.Errorf("span: blob count %d exceeds payload", count)
	}
	spans := make([]Span, 0, count)
	for i := uint64(0); i < count; i++ {
		var f [8]uint64
		for k := range f {
			if f[k], err = u64(); err != nil {
				return nil, 0, err
			}
		}
		plen, err := u64()
		if err != nil {
			return nil, 0, err
		}
		if plen > uint64(len(buf)) {
			return nil, 0, fmt.Errorf("span: phase length %d exceeds payload", plen)
		}
		phase := string(buf[:plen])
		buf = buf[plen:]
		spans = append(spans, Span{
			ID: int64(f[0]), Parent: int64(f[1]), Rank: int(int64(f[2])),
			Round: int64(f[3]), Bytes: int64(f[4]), Off: int64(f[5]),
			Start: math.Float64frombits(f[6]), End: math.Float64frombits(f[7]),
			Phase: phase,
		})
	}
	return spans, int64(droppedU), nil
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// Sink is a mutex-guarded container for the merged result of one run. The
// bench harness hands one Sink to all ranks' goroutines; rank 0 publishes
// the gathered spans into it, and the tool layer snapshots it afterward
// (and the live metrics endpoint may snapshot it mid-sweep).
type Sink struct {
	mu      sync.Mutex
	spans   []Span
	dropped int64
}

// Replace installs a run's merged spans, discarding any previous run's.
func (s *Sink) Replace(spans []Span, dropped int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.spans, s.dropped = spans, dropped
	s.mu.Unlock()
}

// Snapshot returns the current merged spans and total dropped count.
func (s *Sink) Snapshot() ([]Span, int64) {
	if s == nil {
		return nil, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Span, len(s.spans))
	copy(out, s.spans)
	return out, s.dropped
}
