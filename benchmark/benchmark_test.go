package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"pnetcdf/internal/bench"
	"pnetcdf/internal/flash"
	"pnetcdf/internal/mpi"
)

// skipUnderKnobs skips a measuring test when PNETCDF_* variables are set
// (verify.sh re-runs suites under them): the benchmark refuses to run there.
func skipUnderKnobs(t *testing.T) {
	t.Helper()
	if err := checkEnv(os.Environ()); err != nil {
		t.Skip(err)
	}
}

func smallConfig(t *testing.T) runConfig {
	return runConfig{sz: small, seed: 7, minOps: 2, traceDir: t.TempDir()}
}

// checkMetrics asserts a result reports exactly the declared metrics, under
// well-formed names, with their declared units and finite values.
func checkMetrics(t *testing.T, res result, decls []metricDecl) {
	t.Helper()
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(res.Metrics) != len(decls) {
		t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(decls))
	}
	for _, d := range decls {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("declared metric %s not reported", d.Name)
		case !nameRE.MatchString(d.Name):
			t.Errorf("metric name %q is malformed", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s reported in %q, declared in %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s = %v is not finite", d.Name, m.Value)
		}
	}
}

// TestSmoke runs every workload for two operations at reduced size, with
// tracing off and on, through the same code the full benchmark runs.
func TestSmoke(t *testing.T) {
	skipUnderKnobs(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := smallConfig(t)
			res, errs := runEndToEnd(w, cfg)
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Fatalf("end-to-end run: attempted %d, failed %d, errors %v", res.Attempted, res.Failed, errs)
			}
			checkMetrics(t, res, endToEnd)
			for _, name := range []string{"sim_MBps", "host_ms_p50", "alloc_MB_per_op", "allocs_per_op", "setup_s"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want positive", name, res.Metrics[name].Value)
				}
			}

			res, errs = runTraced(w, cfg)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: attempted %d, failed %d, errors %v", res.Attempted, res.Failed, errs)
			}
			checkMetrics(t, res, perLayer)
			v := func(name string) float64 { return res.Metrics[name].Value }
			switch w.name {
			case "flash_ckpt_w":
				if v("core.coll_puts") != 27 || v("mpiio.pipelined_rounds") != 0 {
					t.Errorf("core.coll_puts = %v, mpiio.pipelined_rounds = %v, want 27 and 0", v("core.coll_puts"), v("mpiio.pipelined_rounds"))
				}
			case "flash_ckpt_r":
				if v("core.coll_gets") != 24 || v("core.coll_puts") != 0 {
					t.Errorf("core.coll_gets = %v, core.coll_puts = %v, want 24 and 0", v("core.coll_gets"), v("core.coll_puts"))
				}
			case "fig6_x_multiround":
				if v("mpiio.pipelined_rounds") <= 0 {
					t.Errorf("mpiio.pipelined_rounds = %v, want the multi-round regime", v("mpiio.pipelined_rounds"))
				}
			case "fig6_z_contig":
				if v("mpiio.rounds") != 1 || v("mpitype.segs_per_rank") != 1 {
					t.Errorf("mpiio.rounds = %v, mpitype.segs_per_rank = %v, want 1 and 1", v("mpiio.rounds"), v("mpitype.segs_per_rank"))
				}
			case "meta_defs":
				if v("core.coll_puts") != 0 || v("core.header_commits") != 1 || v("cdf.hdr_bytes") <= 0 {
					t.Errorf("core.coll_puts = %v, core.header_commits = %v, cdf.hdr_bytes = %v", v("core.coll_puts"), v("core.header_commits"), v("cdf.hdr_bytes"))
				}
			}
			if _, err := os.Stat(cfg.traceDir + "/" + w.name + ".trace.json"); err != nil {
				t.Errorf("the traced run left no span file: %v", err)
			}
		})
	}
}

// TestManifestMatchesDeclarations holds BENCHMARK.json to the tables the
// benchmark reports from, and to the limits of its contract.
func TestManifestMatchesDeclarations(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDecl `json:"end_to_end"`
		PerLayer   []metricDecl `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the declared table:\n%v\n%v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the declared table")
	}
	if m.RunSeconds != defaultSeconds || !reflect.DeepEqual(m.Paths, []string{"benchmark"}) {
		t.Errorf("run_seconds = %d, paths = %v", m.RunSeconds, m.Paths)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the benchmark", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %q in the manifest, %q in the benchmark", i, m.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDecl{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if !regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(d.Unit) {
			t.Errorf("%s: unit %q is malformed", d.Name, d.Unit)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestFlashDriverMatchesReferenceWriter proves the fixture-free driver issues
// the paper's logical operations: at a small configuration, with distinct
// per-variable FillUnknown buffers, its file is byte-identical to the one
// flash.WriteCheckpointPnetCDF writes.
func TestFlashDriverMatchesReferenceWriter(t *testing.T) {
	skipUnderKnobs(t)
	const nranks = 4
	cfg := flash.Default8()
	cfg.BlocksPerProc = 2
	mach := bench.ASCIFrost()

	ref := mach.NewFS()
	err := mpi.Run(nranks, mach.Net, func(c *mpi.Comm) error {
		_, err := flash.WriteCheckpointPnetCDF(c, ref, flashPath, cfg, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fileDigest(ref, flashPath)
	if err != nil {
		t.Fatal(err)
	}

	d, err := newFlash(cfg, nranks, flashData{
		fill:  func(cfg flash.Config, v, first, n int) []float64 { return cfg.FillUnknown(v, first, n) },
		value: flash.CellValue,
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(d, 1)
	if s := r.op(nil, nil); s.failed {
		t.Fatal(r.errs)
	}
	if err := d.verify(); err != nil {
		t.Fatal(err)
	}
	got, err := d.digest()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("the driver's file image differs from the reference writer's")
	}
}

// deterministic reports whether a per-layer metric is a count the library
// makes, which must repeat exactly whatever ran before.
func deterministic(d metricDecl) bool {
	return (d.Unit == "count" || d.Unit == "B" || d.Unit == "MB") && !strings.HasPrefix(d.Name, "host.")
}

// TestWorkloadOrderIndependence runs two workloads in either order in one
// process: neither's deterministic metrics may depend on what ran first.
func TestWorkloadOrderIndependence(t *testing.T) {
	skipUnderKnobs(t)
	a, _ := findWorkload("flash_ckpt_w")
	b, _ := findWorkload("fig6_x_multiround")
	ledger := func(order ...workload) map[string]result {
		out := map[string]result{}
		for _, w := range order {
			res, errs := runTraced(w, smallConfig(t))
			if !res.Correct {
				t.Fatalf("%s: %v", w.name, errs)
			}
			out[w.name] = res
		}
		return out
	}
	ab, ba := ledger(a, b), ledger(b, a)
	for _, w := range []workload{a, b} {
		for _, d := range perLayer {
			if x, y := ab[w.name].Metrics[d.Name].Value, ba[w.name].Metrics[d.Name].Value; deterministic(d) && x != y {
				t.Errorf("%s %s = %v run first, %v run second", w.name, d.Name, x, y)
			}
		}
	}
}

// TestOracleCatchesCorruption flips one payload byte of a written file: the
// teardown oracle must notice.
func TestOracleCatchesCorruption(t *testing.T) {
	skipUnderKnobs(t)
	w, _ := findWorkload("fig6_z_contig")
	r, _, err := setUp(w, small, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := r.d.(*fig6Driver)
	if err := d.verify(); err != nil {
		t.Fatal(err)
	}
	pf, _, err := d.fsys.Open(fig6Path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pf.WriteAt(0, []byte{0xff}, pf.Size()/2); err != nil {
		t.Fatal(err)
	}
	if err := d.verify(); err == nil {
		t.Error("verify accepted a corrupted file")
	}
}

func TestCheckEnvRefusesLibraryKnobs(t *testing.T) {
	if err := checkEnv([]string{"HOME=/root", "PNETCDF_CB_PIPELINE=0"}); err == nil {
		t.Error("PNETCDF_CB_PIPELINE=0 accepted")
	}
	if err := checkEnv([]string{"HOME=/root", "GOGC=50"}); err != nil {
		t.Error(err)
	}
}

// TestQuartileSpread pins the quartile rule to Python's
// statistics.quantiles(values, n=4): [2.75, 5.5, 8.25] for 1..10.
func TestQuartileSpread(t *testing.T) {
	if got := quartileSpread([]float64{3, 1, 2, 4, 10, 6, 7, 8, 9, 5}); got != 1 {
		t.Errorf("quartileSpread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spread := func(s float64) *float64 { return &s }
	lower := metricDecl{Name: "alloc_MB_per_op", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "sim_MBps", Better: "higher", Bound: 0.01}
	for _, tc := range []struct {
		m        metricDecl
		old, new reportMetric
		want     string
	}{
		{lower, reportMetric{Value: 100}, reportMetric{Value: 105}, same},
		{lower, reportMetric{Value: 100}, reportMetric{Value: 111}, worse},
		{lower, reportMetric{Value: 100}, reportMetric{Value: 89}, better},
		{higher, reportMetric{Value: 62}, reportMetric{Value: 62.3}, same},
		{higher, reportMetric{Value: 62}, reportMetric{Value: 61}, worse},
		{higher, reportMetric{Value: 62}, reportMetric{Value: 70}, better},
		{lower, reportMetric{Value: 100, Spread: spread(0.2)}, reportMetric{Value: 150}, unresolved},
		{lower, reportMetric{Value: 100, Spread: spread(0.02)}, reportMetric{Value: 150, Spread: spread(0.03)}, worse},
	} {
		if got := verdict(tc.m, tc.old, tc.new); got != tc.want {
			t.Errorf("%s %v -> %v: verdict %s, want %s", tc.m.Name, tc.old.Value, tc.new.Value, got, tc.want)
		}
	}

	one := func(host, fail float64) report {
		rep := report{Workloads: map[string]*workloadReport{}}
		for _, w := range workloads {
			rep.Workloads[w.name] = &workloadReport{FailFrac: fail, Metrics: map[string]reportMetric{"host_ms_p50": {Value: host}}}
		}
		return rep
	}
	var out bytes.Buffer
	if code := compareReports(&out, one(100, 0), one(101, 0)); code != 0 {
		t.Errorf("A/A comparison exits %d:\n%s", code, out.String())
	}
	if code := compareReports(&out, one(100, 0), one(130, 0)); code != 1 {
		t.Errorf("a 30%% slowdown exits %d", code)
	}
	if code := compareReports(&out, one(100, 0), one(100, 0.01)); code != 1 {
		t.Errorf("a rise in fail_frac exits %d", code)
	}
	rows := strings.Count(out.String(), "\n")
	if want := 3 * (1 + len(workloads)*(len(endToEnd)+1+len(perLayer))); rows != want {
		t.Errorf("%d rows printed, want one per (workload, metric): %d", rows, want)
	}
}
