package bench

import (
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/span"
)

// probes is one run's telemetry: rank r counts into stats[r] and records
// spans into recs[r] (each slice nil when that kind is off). The slots are
// read once mpi.Run has returned, never through a collective, so a run a
// rank death cut short keeps what every rank recorded up to its end.
type probes struct {
	stats []*iostat.Stats
	recs  []*span.Recorder
}

// runProbed is mpi.Run on net with every rank's counters (stats) and span
// recorder (spans) installed before body runs.
func runProbed(nprocs int, net mpi.NetConfig, stats, spans bool, body func(c *mpi.Comm) error) (probes, error) {
	var p probes
	if stats {
		p.stats = make([]*iostat.Stats, nprocs)
	}
	if spans {
		p.recs = make([]*span.Recorder, nprocs)
	}
	err := mpi.Run(nprocs, net, func(c *mpi.Comm) error {
		proc, r := c.Proc(), c.Rank()
		if stats {
			p.stats[r] = iostat.New()
			proc.SetStats(p.stats[r])
		}
		if spans {
			p.recs[r] = span.NewRecorder(r, proc.Clock)
			proc.SetSpans(p.recs[r])
		}
		return body(c)
	})
	return p, err
}

// summary folds the ranks' counters; nil when they were off.
func (p probes) summary() *iostat.Summary {
	if p.stats == nil {
		return nil
	}
	return iostat.Summarize(p.stats)
}

// spans merges the ranks' spans and sums the counts they dropped.
func (p probes) spans() ([]span.Span, int64) { return span.Merge(p.recs) }

// failedRun is the run that ended a sweep: where in the sweep it ran, and
// the counters its ranks kept up to the failure (nil unless the options'
// Stats).
type failedRun struct {
	Partition Partition // Figure 6's; Figure 7 has none
	Procs     int
	Stats     *iostat.Summary
}
