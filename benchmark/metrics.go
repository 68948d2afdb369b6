package main

// The metric declarations: one table for the end-to-end metrics and one for
// the per-layer ledger. BENCHMARK.json at the repository root repeats them
// for the driver; TestManifestMatchesDeclarations keeps the two equal.

// metricDecl declares one metric. Bound is the share of the baseline's
// median by which an end-to-end metric may worsen before -compare calls it
// a regression; per-layer metrics carry no bound.
type metricDecl struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// endToEnd is what a user of the library sees: the paper's currency
// (virtual-time bandwidth) and the simulator's (host time, CPU, memory).
// Every workload reports all of them from a run with tracing off. The bounds
// follow the quartile spreads seen over sets of ten runs on the seed commit
// (README.md). Virtual time and allocation repeat to a fraction of a percent.
// Host time, CPU, set-up time and the RSS high-water mark follow the shared
// 2-CPU sandbox, whose speed drifts by 10-20% over minutes, so they carry the
// widest bound the contract allows.
var endToEnd = []metricDecl{
	{"sim_MBps", "MB/s", "higher", 0.01},
	{"host_ms_p50", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_MB_per_op", "MB", "lower", 0.03},
	{"allocs_per_op", "count", "lower", 0.03},
	{"peak_rss_MB", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is the ledger of a traced run, grouped by the module it measures.
// Counts and sim_* values come from the library's own counters and
// virtual-clock spans; host values are timed from outside (spans around the
// calls into core, and probes that call a lower layer directly).
var perLayer = []metricDecl{
	// core: PnetCDF API, header sync, put/get.
	{"core.put_ms", "ms", "lower", 0},
	{"core.get_ms", "ms", "lower", 0},
	{"core.define_ms", "ms", "lower", 0},
	{"core.enddef_ms", "ms", "lower", 0},
	{"core.open_ms", "ms", "lower", 0},
	{"core.close_ms", "ms", "lower", 0},
	{"core.inq_us", "us", "lower", 0},
	{"core.self_put_ms", "ms", "lower", 0},
	{"core.self_get_ms", "ms", "lower", 0},
	{"core.coll_puts", "count", "lower", 0},
	{"core.coll_gets", "count", "lower", 0},
	{"core.header_commits", "count", "lower", 0},
	{"core.numrecs_syncs", "count", "lower", 0},
	{"core.sim_put_ms", "ms", "lower", 0},
	{"core.sim_get_ms", "ms", "lower", 0},
	// cdf: header codec, XDR encode/decode, FindVar.
	{"cdf.encode_MBps", "MB/s", "higher", 0},
	{"cdf.encode_contig_MBps", "MB/s", "higher", 0},
	{"cdf.decode_MBps", "MB/s", "higher", 0},
	{"cdf.hdr_encode_ms", "ms", "lower", 0},
	{"cdf.hdr_decode_ms", "ms", "lower", 0},
	{"cdf.hdr_validate_ms", "ms", "lower", 0},
	{"cdf.findvar_us", "us", "lower", 0},
	{"cdf.hdr_bytes", "B", "lower", 0},
	// access + mpitype: view resolve and flatten.
	{"access.fileview_us", "us", "lower", 0},
	{"mpitype.subarray_us", "us", "lower", 0},
	{"mpitype.flatten_us", "us", "lower", 0},
	{"mpitype.segs_per_rank", "count", "lower", 0},
	// mpiio: two-phase plan, pack, rounds, pipeline.
	{"mpiio.write_ms", "ms", "lower", 0},
	{"mpiio.read_ms", "ms", "lower", 0},
	{"mpiio.rounds", "count", "lower", 0},
	{"mpiio.pipelined_rounds", "count", "lower", 0},
	{"mpiio.sim_overlap_ms", "ms", "higher", 0},
	{"mpiio.exchange_MB", "MB", "lower", 0},
	{"mpiio.sim_write_ms", "ms", "lower", 0},
	{"mpiio.sim_read_ms", "ms", "lower", 0},
	{"mpiio.sim_plan_ms", "ms", "lower", 0},
	{"mpiio.sim_pack_ms", "ms", "lower", 0},
	{"mpiio.sim_exchange_ms", "ms", "lower", 0},
	{"mpiio.sim_agg_io_ms", "ms", "lower", 0},
	{"mpiio.sim_reply_ms", "ms", "lower", 0},
	{"mpiio.sim_scatter_ms", "ms", "lower", 0},
	{"mpiio.agg_imbalance", "ratio", "lower", 0},
	{"mpiio.retries", "count", "lower", 0},
	{"mpiio.coll_aborts", "count", "lower", 0},
	// mpi: simulated messaging and collectives.
	{"mpi.msgs", "count", "lower", 0},
	{"mpi.MB_sent", "MB", "lower", 0},
	{"mpi.collectives", "count", "lower", 0},
	{"mpi.run_us", "us", "lower", 0},
	{"mpi.allreduce_us", "us", "lower", 0},
	{"mpi.alltoall_MBps", "MB/s", "higher", 0},
	{"mpi.bcast_us", "us", "lower", 0},
	// pfs: striped store and cost model.
	{"pfs.write_calls", "count", "lower", 0},
	{"pfs.write_extents", "count", "lower", 0},
	{"pfs.MB_written", "MB", "lower", 0},
	{"pfs.read_calls", "count", "lower", 0},
	{"pfs.read_extents", "count", "lower", 0},
	{"pfs.MB_read", "MB", "lower", 0},
	{"pfs.sim_seek_ms", "ms", "lower", 0},
	{"pfs.sim_xfer_ms", "ms", "lower", 0},
	{"pfs.rmw_blocks", "count", "lower", 0},
	{"pfs.rmw_MB", "MB", "lower", 0},
	{"pfs.write_amp", "ratio", "lower", 0},
	{"pfs.store_write_MBps", "MB/s", "higher", 0},
	{"pfs.store_read_MBps", "MB/s", "higher", 0},
	{"pfs.retries", "count", "lower", 0},
	{"pfs.faults", "count", "lower", 0},
	// Context for sim_MBps: the paper's published ratios. Run once, untimed.
	{"netcdf.serial_sim_MBps", "MB/s", "higher", 0},
	{"netcdf.speedup", "ratio", "higher", 0},
	{"h5sim.sim_MBps", "MB/s", "higher", 0},
	{"h5sim.ratio", "ratio", "higher", 0},
	{"scale.sim_MBps_r32", "MB/s", "higher", 0},
	{"scale.eff_r32", "ratio", "higher", 0},
	// trace: what the telemetry itself costs and how much it explains.
	{"trace.overhead_frac", "frac", "lower", 0},
	{"trace.spans_per_op", "count", "lower", 0},
	{"trace.dropped", "count", "lower", 0},
	{"trace.sim_unattributed_frac", "frac", "lower", 0},
	// Diagnostics of the untraced half of the traced run.
	{"host.ms_p90", "ms", "lower", 0},
	{"host.ms_min", "ms", "lower", 0},
	{"host.ops", "count", "higher", 0},
	{"host.gc_cycles_per_op", "count", "lower", 0},
	{"host.gc_pause_ms_per_op", "ms", "lower", 0},
	{"host.sim_MBps_spread", "frac", "lower", 0},
	{"fixture.build_ms", "ms", "lower", 0},
	{"fixture.MB", "MB", "lower", 0},
}
