package bench

import (
	"pnetcdf/internal/fault"
	"pnetcdf/internal/pfs"
)

// FaultOptions configures deterministic fault injection for a bench run:
// transient read/write errors and short transfers at probability Rate per
// 64 KiB of payload, plus the occasional latency spike. The retry machinery
// absorbs the faults, so a faulted run must produce the same file as a
// clean one — the bench knobs exist to measure what that recovery costs
// (see the IORetries / PfsRetries / IOBackoffTime counters under -stats).
type FaultOptions struct {
	// Rate is the per-64KiB transient fault probability; 0 disables
	// injection entirely.
	Rate float64
	// Seed selects the deterministic fault schedule (same seed, same
	// faults, same virtual-time result).
	Seed uint64
	// KillPoint, when non-empty, arms a one-shot rank kill at the named
	// two-phase crash point (fault.KillBeforePack, fault.KillMidExchange,
	// fault.KillAfterIssue). The survivors detect the death, shrink and
	// fail over (DESIGN.md §8); detection is always on and costs the run
	// mpi.FTDetectLatency of virtual time, so a kill run's MB/s is lower
	// than a clean one's for a reason the model accounts for.
	KillPoint string
	// KillRank is the world rank to kill (meaningful with KillPoint).
	KillRank int
	// KillOccurrence selects which passage of KillRank through KillPoint
	// fires, 0-based (e.g. the Nth round's pack).
	KillOccurrence int64
}

// apply installs an injector on fsys when Rate is nonzero or a rank kill
// is armed.
func (fo FaultOptions) apply(fsys *pfs.FS) {
	if fo.Rate <= 0 && fo.KillPoint == "" {
		return
	}
	inj := fault.New(fault.Config{
		Seed:         fo.Seed,
		ReadErrRate:  fo.Rate,
		WriteErrRate: fo.Rate,
		ShortRate:    fo.Rate,
		LatencyRate:  fo.Rate,
		LatencySpike: 2e-3,
		FaultUnit:    64 << 10,
	})
	if fo.KillPoint != "" {
		inj.KillRankAt(fo.KillRank, fo.KillPoint, fo.KillOccurrence)
	}
	fsys.SetFault(inj)
}
