package main

// The adapter to the library's telemetry. This is the only file of the
// benchmark that imports internal/iostat and internal/span: when those
// collapse into one event model, this file is the whole follow-up.

import (
	"sort"

	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/span"
)

// telemetry holds the per-rank counters and virtual-clock span recorders of
// one traced operation. A nil *telemetry is tracing off.
type telemetry struct {
	stats []*iostat.Stats
	recs  []*span.Recorder
}

func newTelemetry(nranks int) *telemetry {
	return &telemetry{stats: make([]*iostat.Stats, nranks), recs: make([]*span.Recorder, nranks)}
}

// attach installs fresh collectors on the calling rank, through the public
// Proc.SetStats/SetSpans. Ranks write distinct slots, and the benchmark
// reads them only after mpi.Run has returned.
func (t *telemetry) attach(c *mpi.Comm) {
	if t == nil {
		return
	}
	p, r := c.Proc(), c.Rank()
	t.stats[r] = iostat.New()
	t.recs[r] = span.NewRecorder(r, p.Clock)
	p.SetStats(t.stats[r])
	p.SetSpans(t.recs[r])
}

func (t *telemetry) sum(k iostat.Counter) float64 {
	var s int64
	for _, st := range t.stats {
		s += st.Get(k)
	}
	return float64(s)
}

func (t *telemetry) max(k iostat.Counter) float64 {
	var m int64
	for _, st := range t.stats {
		if v := st.Get(k); v > m {
			m = v
		}
	}
	return float64(m)
}

// ledger turns the last operation's counters and spans into the count and
// sim_* metrics of the per-layer table. Calls are per rank (the busiest
// rank's count); bytes, messages and file-system requests are totals over
// ranks; mpiio and core virtual times are the busiest rank's, pfs seek and
// transfer times the servers' totals. It also returns how many library spans
// the operation recorded and dropped.
func (t *telemetry) ledger(payload int64) (m map[string]float64, spans int, dropped int64) {
	const ms, mb = 1e6, 1e6 // ns per ms, bytes per MB
	m = map[string]float64{
		"core.coll_puts":         t.max(iostat.NCCollPuts),
		"core.coll_gets":         t.max(iostat.NCCollGets),
		"core.header_commits":    t.max(iostat.NCHeaderCommits),
		"core.numrecs_syncs":     t.max(iostat.NCNumRecsSyncs),
		"core.sim_put_ms":        t.max(iostat.NCPutTimeNs) / ms,
		"core.sim_get_ms":        t.max(iostat.NCGetTimeNs) / ms,
		"mpiio.rounds":           t.max(iostat.IOTwoPhaseRounds),
		"mpiio.pipelined_rounds": t.max(iostat.IOPipelinedRounds),
		"mpiio.sim_overlap_ms":   t.max(iostat.IOOverlapTimeNs) / ms,
		"mpiio.exchange_MB":      t.sum(iostat.IOExchangeBytes) / mb,
		"mpiio.sim_write_ms":     t.max(iostat.IOWriteTimeNs) / ms,
		"mpiio.sim_read_ms":      t.max(iostat.IOReadTimeNs) / ms,
		"mpiio.retries":          t.sum(iostat.IORetries),
		"mpiio.coll_aborts":      t.max(iostat.IOCollAborts),
		"mpi.msgs":               t.sum(iostat.MPIMsgsSent),
		"mpi.MB_sent":            t.sum(iostat.MPIBytesSent) / mb,
		"mpi.collectives":        t.max(iostat.MPICollectives),
		"pfs.write_calls":        t.sum(iostat.PfsWriteCalls),
		"pfs.write_extents":      t.sum(iostat.PfsWriteExtents),
		"pfs.MB_written":         t.sum(iostat.PfsBytesWritten) / mb,
		"pfs.read_calls":         t.sum(iostat.PfsReadCalls),
		"pfs.read_extents":       t.sum(iostat.PfsReadExtents),
		"pfs.MB_read":            t.sum(iostat.PfsBytesRead) / mb,
		"pfs.sim_seek_ms":        t.sum(iostat.PfsSeekTimeNs) / ms,
		"pfs.sim_xfer_ms":        t.sum(iostat.PfsTransferTimeNs) / ms,
		"pfs.rmw_blocks":         t.sum(iostat.PfsRMWBlocks),
		"pfs.rmw_MB":             t.sum(iostat.PfsRMWBytes) / mb,
		"pfs.retries":            t.sum(iostat.PfsRetries),
		"pfs.faults":             t.sum(iostat.PfsFaultsInjected),
	}
	m["pfs.write_amp"] = (t.sum(iostat.PfsBytesWritten) + t.sum(iostat.PfsRMWBytes)) / float64(payload)

	// Virtual time by two-phase step, from the library's spans.
	steps := map[string]string{
		span.Plan: "mpiio.sim_plan_ms", span.Pack: "mpiio.sim_pack_ms",
		span.Exchange: "mpiio.sim_exchange_ms", span.AggWrite: "mpiio.sim_agg_io_ms",
		span.AggRead: "mpiio.sim_agg_io_ms", span.ReplyXchg: "mpiio.sim_reply_ms",
		span.Scatter: "mpiio.sim_scatter_ms",
	}
	for _, name := range steps {
		m[name] = 0
	}
	var aggMax, aggSum, aggRanks, collSum, coveredSum float64
	for _, rec := range t.recs {
		ss := rec.Spans()
		spans += len(ss)
		dropped += rec.Dropped()
		byID := make(map[int64]*span.Span, len(ss))
		isParent := make(map[int64]bool, len(ss))
		for i := range ss {
			byID[ss[i].ID] = &ss[i]
			isParent[ss[i].Parent] = true
		}
		perStep := map[string]float64{}
		var leaves []span.Span
		for i := range ss {
			s := &ss[i]
			if name, ok := steps[s.Phase]; ok {
				perStep[name] += s.Dur()
			}
			if s.Phase == span.CollWrite || s.Phase == span.CollRead {
				collSum += s.Dur()
			}
			if !isParent[s.ID] && insideCollective(s, byID) {
				leaves = append(leaves, *s)
			}
		}
		coveredSum += covered(leaves)
		for name, v := range perStep {
			m[name] = max(m[name], v*1e3)
		}
		if agg := perStep["mpiio.sim_agg_io_ms"]; agg > 0 {
			aggSum += agg
			aggRanks++
			aggMax = max(aggMax, agg)
		}
	}
	m["mpiio.agg_imbalance"] = 0
	if aggSum > 0 {
		m["mpiio.agg_imbalance"] = aggMax / (aggSum / aggRanks)
	}
	// The share of the ranks' virtual time inside collectives that no leaf
	// span (a pfs request, a plan, an exchange ...) accounts for: today mostly
	// the wait in the per-round agreement.
	m["trace.sim_unattributed_frac"] = 0
	if collSum > 0 {
		m["trace.sim_unattributed_frac"] = max(0, 1-coveredSum/collSum)
	}
	return m, spans, dropped
}

// covered is the length of the union of the spans' intervals: the pipelined
// path keeps aggregator I/O in flight under the next round's spans, so a
// plain sum would count that time twice.
func covered(spans []span.Span) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, end float64
	for _, s := range spans {
		if s.End > end {
			total += s.End - max(s.Start, end)
			end = s.End
		}
	}
	return total
}

// insideCollective reports whether s lies under a collective read or write.
func insideCollective(s *span.Span, byID map[int64]*span.Span) bool {
	for p := byID[s.Parent]; p != nil; p = byID[p.Parent] {
		if p.Phase == span.CollWrite || p.Phase == span.CollRead {
			return true
		}
	}
	return false
}
