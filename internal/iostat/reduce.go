package iostat

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Gatherer is the slice of communicator behavior Reduce needs. *mpi.Comm
// satisfies it; the indirection keeps this package free of an mpi
// dependency (mpi itself records into Stats).
type Gatherer interface {
	Rank() int
	Size() int
	Gather(root int, data []byte) [][]byte
}

// Summary is the rank-0 result of a Reduce: per-counter min, max and sum
// over the participating ranks, mirroring how the paper reports aggregate
// bandwidth with per-process spread.
type Summary struct {
	Ranks int
	Min   Snapshot
	Max   Snapshot
	Sum   Snapshot
}

// Mean returns the per-rank mean of counter k.
func (s *Summary) Mean(k Counter) float64 {
	if s == nil || s.Ranks == 0 {
		return 0
	}
	return float64(s.Sum[k]) / float64(s.Ranks)
}

// Reduce collectively gathers every rank's snapshot of st to rank 0 and
// folds them into a Summary. Every rank of c must call it (st may be nil —
// it contributes zeros). Rank 0 receives the summary; other ranks receive
// nil, like an MPI_Reduce.
func Reduce(c Gatherer, st *Stats) *Summary {
	snap := st.Snapshot()
	blob := make([]byte, 8*NumCounters)
	for i, v := range snap {
		binary.BigEndian.PutUint64(blob[i*8:], uint64(v))
	}
	parts := c.Gather(0, blob)
	if c.Rank() != 0 {
		return nil
	}
	sum := &Summary{Ranks: c.Size()}
	for r, p := range parts {
		var s Snapshot
		for i := range s {
			s[i] = int64(binary.BigEndian.Uint64(p[i*8:]))
		}
		for i := range s {
			if r == 0 || s[i] < sum.Min[i] {
				sum.Min[i] = s[i]
			}
			if r == 0 || s[i] > sum.Max[i] {
				sum.Max[i] = s[i]
			}
			sum.Sum[i] += s[i]
		}
	}
	return sum
}

// KeyCounters returns the wire-named counter sums as a map, the
// machine-readable form the bench JSON embeds.
func (s *Summary) KeyCounters() map[string]int64 {
	if s == nil {
		return nil
	}
	out := make(map[string]int64, int(NumCounters))
	for k := Counter(0); k < NumCounters; k++ {
		out[k.String()] = s.Sum[k]
	}
	return out
}

// fmtVal renders a counter value with its natural unit.
func fmtVal(k Counter, v int64) string {
	switch {
	case k.IsTime():
		return fmtSeconds(float64(v) / 1e9)
	case k.IsBytes():
		return fmtBytes(v)
	default:
		return fmt.Sprintf("%d", v)
	}
}

func fmtSeconds(s float64) string {
	switch {
	case s == 0:
		return "0"
	case s < 1e-3:
		return fmt.Sprintf("%.1fus", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.3fs", s)
	}
}

func fmtBytes(b int64) string {
	switch {
	case b == 0:
		return "0"
	case b < 1<<10:
		return fmt.Sprintf("%dB", b)
	case b < 1<<20:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	case b < 1<<30:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	default:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	}
}

// WriteTable prints the summary as a per-layer table: total over ranks plus
// the per-rank min/max spread, skipping counters that stayed zero.
func WriteTable(w io.Writer, s *Summary) {
	if s == nil {
		return
	}
	fmt.Fprintf(w, "  iostat (%d ranks)\n", s.Ranks)
	fmt.Fprintf(w, "    %-8s %-26s %14s %12s %12s\n", "layer", "counter", "total", "rank-min", "rank-max")
	for k := Counter(0); k < NumCounters; k++ {
		if s.Sum[k] == 0 && s.Min[k] == 0 && s.Max[k] == 0 {
			continue
		}
		fmt.Fprintf(w, "    %-8s %-26s %14s %12s %12s\n",
			k.Layer(), k.String(), fmtVal(k, s.Sum[k]), fmtVal(k, s.Min[k]), fmtVal(k, s.Max[k]))
	}
	writeSelfCheck(w, s)
}

// writeSelfCheck prints the cross-layer byte reconciliation: data written
// through pnetcdf should equal data issued through MPI-IO, and should land
// in pfs alongside the separately reported header and amplification
// traffic.
func writeSelfCheck(w io.Writer, s *Summary) {
	put, ioData := s.Sum[NCBytesPut], s.Sum[IOBytesWritten]
	if put == 0 && ioData == 0 {
		return
	}
	accounted := ioData + s.Sum[IORawBytesWritten] + s.Sum[IOSieveWriteAmpBytes]
	fmt.Fprintf(w, "    self-check: pnetcdf put %s; mpi-io issued %s data + %s raw + %s sieve-amp = %s; pfs landed %s\n",
		fmtBytes(put), fmtBytes(ioData), fmtBytes(s.Sum[IORawBytesWritten]),
		fmtBytes(s.Sum[IOSieveWriteAmpBytes]), fmtBytes(accounted), fmtBytes(s.Sum[PfsBytesWritten]))
}
