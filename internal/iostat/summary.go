package iostat

import (
	"fmt"
	"io"
)

// Summary folds per-rank counters into per-counter min, max and sum over
// the ranks, mirroring how the paper reports aggregate bandwidth with
// per-process spread.
type Summary struct {
	Ranks int
	Min   snapshot
	Max   snapshot
	Sum   snapshot
}

// Summarize folds one run's per-rank counters, indexed by rank, into a
// Summary over len(ranks) ranks; a nil entry (a rank that kept no counters)
// counts as zeros. It is read once the ranks have returned, so a run that
// failed keeps the counts its ranks made up to the failure.
func Summarize(ranks []*Stats) *Summary {
	sum := &Summary{Ranks: len(ranks)}
	for r, st := range ranks {
		s := st.snapshot()
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
	out := make(map[string]int64, int(numCounters))
	for k := Counter(0); k < numCounters; k++ {
		out[k.String()] = s.Sum[k]
	}
	return out
}

// fmtVal renders a counter value with its natural unit.
func fmtVal(k Counter, v int64) string {
	switch {
	case k.isTime():
		return fmtSeconds(float64(v) / 1e9)
	case k.isBytes():
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
	for k := Counter(0); k < numCounters; k++ {
		if s.Sum[k] == 0 && s.Min[k] == 0 && s.Max[k] == 0 {
			continue
		}
		fmt.Fprintf(w, "    %-8s %-26s %14s %12s %12s\n",
			k.layer(), k.String(), fmtVal(k, s.Sum[k]), fmtVal(k, s.Min[k]), fmtVal(k, s.Max[k]))
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
