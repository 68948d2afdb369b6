package main

import (
	"time"
)

// The traced run: the per-layer ledger. Traced and untraced operations
// alternate in one loop, so their difference is the tracing overhead and the
// untraced half gives the host diagnostics. Then the layer probes and the
// untimed context runs. Spans are written once, after everything else.

// coreSpans maps the per-layer host metrics of core to the span names they
// sum, with the factor from nanoseconds.
var coreSpans = []struct {
	metric string
	spans  []string
	perNs  float64
}{
	{"core.put_ms", []string{spanPut}, 1e-6},
	{"core.get_ms", []string{spanGet}, 1e-6},
	{"core.define_ms", []string{spanDefine}, 1e-6},
	{"core.enddef_ms", []string{spanEndDef}, 1e-6},
	{"core.open_ms", []string{spanOpen}, 1e-6},
	{"core.close_ms", []string{spanSync, spanClose}, 1e-6},
	{"core.inq_us", []string{spanInq}, 1e-3},
}

func runTraced(w workload, cfg runConfig) (result, []error) {
	r, build, err := setUp(w, cfg.sz, cfg.seed)
	if err != nil {
		return result{}, []error{err}
	}
	d := r.d
	payload := d.payload()
	tel, ht := newTelemetry(d.ranks()), newHostTrace(d.ranks())

	// series collects one value per traced operation for every metric that
	// comes from the operation itself.
	series := map[string][]float64{}
	var libSpans int
	var libDropped int64
	traced := func() opSample {
		t0 := ht.now()
		s := r.op(tel, ht)
		per := ht.commit("core", t0, ht.now())
		for _, cs := range coreSpans {
			var ns time.Duration
			for _, name := range cs.spans {
				ns += per[name]
			}
			series[cs.metric] = append(series[cs.metric], float64(ns)*cs.perNs)
		}
		ledger, n, dropped := tel.ledger(payload)
		for name, v := range ledger {
			series[name] = append(series[name], v)
		}
		libSpans += n
		libDropped += dropped
		return s
	}
	var mem0, mem1 gcStats
	mem0.read()
	plain, withTrace := r.loop(cfg.duration/2, cfg.minOps, traced)
	mem1.read()
	hostSpans := len(ht.spans)
	if err := r.finish(); err != nil {
		r.errs = append(r.errs, err)
	}

	values := map[string]float64{}
	for name, xs := range series {
		values[name] = median(xs)
	}
	s, err := d.shapes()
	if err == nil {
		p := prober{s: s, n: d.ranks(), net: d.net(), budget: cfg.duration / 60, ht: ht, out: values}
		err = p.run()
	}
	if err != nil {
		r.errs = append(r.errs, err)
	}
	values["core.self_put_ms"] = max(0, values["core.put_ms"]-values["mpiio.write_ms"])
	values["core.self_get_ms"] = max(0, values["core.get_ms"]-values["mpiio.read_ms"])

	// Context: the paper's comparisons, each run once in virtual time only.
	sims := column(plain, func(s opSample) float64 { return simMBps(payload, s.makespan) })
	sim := median(sims)
	try := func(v float64, err error) float64 {
		if err != nil {
			r.errs = append(r.errs, err)
		}
		return v
	}
	if f, ok := d.(interface{ serialMBps() (float64, error) }); ok {
		v := try(f.serialMBps())
		values["netcdf.serial_sim_MBps"], values["netcdf.speedup"] = v, ratio(sim, v)
	}
	if f, ok := d.(interface{ h5MBps() (float64, error) }); ok {
		v := try(f.h5MBps())
		values["h5sim.sim_MBps"], values["h5sim.ratio"] = v, ratio(sim, v)
	}
	// Efficiency against linear scaling of the bandwidth with the rank count.
	v := try(scaleMBps(w, cfg.sz))
	values["scale.sim_MBps_r32"], values["scale.eff_r32"] = v, ratio(v, sim)*nRanks/scaleRanks

	host := column(plain, wallMs)
	values["trace.overhead_frac"] = median(column(withTrace, wallMs))/median(host) - 1
	values["trace.spans_per_op"] = float64(hostSpans+libSpans) / float64(len(withTrace))
	values["trace.dropped"] = float64(ht.dropped) + float64(libDropped)
	values["host.ms_p90"] = quantile(host, 0.9)
	values["host.ms_min"] = quantile(host, 0)
	values["host.ops"] = float64(len(plain))
	ops := float64(len(plain) + len(withTrace))
	values["host.gc_cycles_per_op"] = float64(mem1.cycles-mem0.cycles) / ops
	values["host.gc_pause_ms_per_op"] = float64(mem1.pause-mem0.pause) / 1e6 / ops
	values["host.sim_MBps_spread"] = (quantile(sims, 0.75) - quantile(sims, 0.25)) / median(sims)
	values["fixture.build_ms"] = float64(build) / 1e6
	values["fixture.MB"] = float64(d.fixtureBytes()) / 1e6

	if cfg.traceDir != "" {
		if err := ht.write(cfg.traceDir, w.name); err != nil {
			r.errs = append(r.errs, err)
		}
	}
	return makeResult(perLayer, values, append(plain, withTrace...), r.errs), r.errs
}

// ratio is a/b, 0 when b is.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
