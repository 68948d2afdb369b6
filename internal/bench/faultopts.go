package bench

import (
	"pnetcdf/internal/fault"
	"pnetcdf/internal/pfs"
)

// FaultOptions configures deterministic fault injection for a bench run:
// transient read/write errors and latency spikes at probability Rate per
// 64 KiB of payload. An error cuts the request at the unit it struck and
// pfs resumes it from the cut, so a faulted run must produce the same file
// as a clean one, its bytes moved once — the bench knobs exist to measure
// what that recovery costs (pfs_retries and pfs_backoff_time_ns under
// -stats).
type FaultOptions struct {
	// Rate is the per-64KiB transient fault probability; 0 disables
	// injection entirely.
	Rate float64
	// Seed selects the deterministic fault schedule (same seed, same
	// faults, same virtual-time result).
	Seed uint64
	// KillPoint, when non-empty, arms a one-shot rank kill at the named
	// two-phase crash point (fault.KillBeforePack, fault.KillMidExchange,
	// fault.KillAfterIssue). The survivors detect the death after mpi's
	// detection latency of 0.3 s of virtual time, and the run fails with the
	// *mpi.revokedError every survivor returns (DESIGN.md §8).
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
	fo.install(fsys)
	fo.armKill(fsys)
}

// install is apply without arming the rank kill: a run that must not lose
// the rank before its measured phase arms it there (armKill).
func (fo FaultOptions) install(fsys *pfs.FS) {
	if fo.Rate <= 0 && fo.KillPoint == "" {
		return
	}
	fsys.SetFault(fault.New(fault.Config{
		Seed:         fo.Seed,
		ReadErrRate:  fo.Rate,
		WriteErrRate: fo.Rate,
		LatencyRate:  fo.Rate,
		LatencySpike: 2e-3,
		FaultUnit:    64 << 10,
	}))
}

// armKill arms the rank kill, if any, on the injector install put on fsys.
// Passages through the crash point before it is armed are not counted.
func (fo FaultOptions) armKill(fsys *pfs.FS) {
	if fo.KillPoint != "" {
		fsys.Fault().KillRankAt(fo.KillRank, fo.KillPoint, fo.KillOccurrence)
	}
}
