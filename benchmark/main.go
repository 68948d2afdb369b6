// Command benchmark is the repository's yardstick: five pinned workloads
// through core -> mpiio -> mpi -> pfs, measured end to end in both currencies
// (virtual time and host cost) with tracing off, and layer by layer from a
// separate traced run. See README.md in this directory.
//
//	go run ./benchmark -seed 1                     every workload, one child process each
//	go run ./benchmark -workload W -seed 1 -seconds 12 -trace 0|1   one run, one JSON line
//	go run ./benchmark -compare old.json new.json  verdict per (workload, metric)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"
)

const (
	defaultSeconds = 12
	// A run lasts -seconds or this many operations, whichever is longer, so
	// that host_ms_p50 never rests on a handful of samples; a traced run
	// needs at least minTracedOps traced and as many untraced operations.
	minTimedOps  = 100
	minTracedOps = 20
	outDir       = "benchmark/out"
	maxProcs     = 4 // GOMAXPROCS = min(nproc, maxProcs)
	gcPercent    = 100
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a single run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runConfig is what one run of one workload needs.
type runConfig struct {
	sz         sizes
	seed       uint64
	duration   time.Duration
	minOps     int    // lower bound on timed operations, whatever the duration
	traceDir   string // where the traced run writes its spans; "" = nowhere
	cpuProfile string // profile of the timed loop; "" = none
}

func main() {
	var (
		name       = flag.String("workload", "", "run this one workload in this process and print one JSON result line; empty runs all, each in a child process")
		seed       = flag.Uint64("seed", 1, "seed of the generated inputs: data values, names, lookup order")
		seconds    = flag.Float64("seconds", defaultSeconds, "length of the timed loop of one run")
		trace      = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		runs       = flag.Int("runs", 1, "all-workload mode: end-to-end runs per workload, seeds seed..seed+runs-1; medians and quartile spreads are recorded")
		out        = flag.String("out", outDir+"/result.json", "all-workload mode: where the JSON result goes")
		compare    = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		cpuProfile = flag.String("cpuprofile", "", "with -workload and -trace 0: write a CPU profile of the timed loop here")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: benchmark -compare old.json new.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal(2, "unexpected argument %q", flag.Arg(0))
	}
	if err := checkEnv(os.Environ()); err != nil {
		fatal(2, "%v", err)
	}
	if *seconds <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fatal(2, "-seconds and -runs must be positive, -trace 0 or 1")
	}
	e := pinRuntime(*seed, *seconds)
	if *name == "" {
		os.Exit(runAll(e, *runs, *out))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(2, "unknown workload %q", *name)
	}
	cfg := runConfig{
		sz: full, seed: *seed, duration: time.Duration(*seconds * float64(time.Second)),
		minOps: minTimedOps, traceDir: outDir, cpuProfile: *cpuProfile,
	}
	run, decls := runEndToEnd, endToEnd
	if *trace == 1 {
		cfg.minOps = minTracedOps
		run, decls = runTraced, perLayer
	}
	res, errs := run(w, cfg)
	for _, err := range errs {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
	}
	if res.Attempted == 0 {
		os.Exit(1) // set-up failed: there is no measurement to print
	}
	fmt.Printf("# %s seed=%d seconds=%g trace=%d %s\n", w.name, *seed, *seconds, *trace, e)
	for _, m := range decls {
		fmt.Printf("%-28s %14.6g %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Printf("%s\n", line)
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

// checkEnv refuses to measure under any PNETCDF_* variable: they switch the
// library's partitioner, pipeline, collective checker and failure detector.
func checkEnv(environ []string) error {
	for _, kv := range environ {
		if strings.HasPrefix(kv, "PNETCDF_") {
			return fmt.Errorf("%s is set; the benchmark measures the library's defaults, unset every PNETCDF_* variable", strings.SplitN(kv, "=", 2)[0])
		}
	}
	return nil
}

// env records what a run was pinned to.
type env struct {
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       int     `json:"gogc"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func (e env) String() string {
	return fmt.Sprintf("go=%s nproc=%d GOMAXPROCS=%d GOGC=%d commit=%s", e.Go, e.NProc, e.GOMAXPROCS, e.GOGC, e.Commit)
}

// pinRuntime fixes the scheduler width and the collector's pace whatever the
// caller's environment says, and records them.
func pinRuntime(seed uint64, seconds float64) env {
	procs := min(runtime.NumCPU(), maxProcs)
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(gcPercent)
	debug.SetMemoryLimit(math.MaxInt64)
	e := env{Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: procs, GOGC: gcPercent, Commit: "unknown", Seed: seed, Seconds: seconds}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// runEndToEnd is a run with tracing off: set up (several times, for a steady
// setup_s), collect, run the timed loop, then hold the output to the oracle.
func runEndToEnd(w workload, cfg runConfig) (result, []error) {
	var r *runner
	var setups []float64
	for i := 0; i < setupReps; i++ {
		r = nil
		runtime.GC()
		start := time.Now()
		var err error
		if r, _, err = setUp(w, cfg.sz, cfg.seed); err != nil {
			return result{}, []error{err}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	runtime.GC()
	stopProfile, err := startProfile(cfg.cpuProfile)
	if err != nil {
		return result{}, []error{err}
	}
	samples, _ := r.loop(cfg.duration, cfg.minOps, nil)
	if err := stopProfile(); err != nil {
		r.errs = append(r.errs, err)
	}
	rss := peakRSS()
	if err := r.finish(); err != nil {
		r.errs = append(r.errs, err)
	}
	payload := r.d.payload()
	values := map[string]float64{
		"sim_MBps":        median(column(samples, func(s opSample) float64 { return simMBps(payload, s.makespan) })),
		"host_ms_p50":     median(column(samples, wallMs)),
		"cpu_ms_per_op":   perOp(samples, func(s opSample) float64 { return float64(s.cpu) / 1e6 }),
		"alloc_MB_per_op": perOp(samples, func(s opSample) float64 { return float64(s.bytes) / 1e6 }),
		"allocs_per_op":   perOp(samples, func(s opSample) float64 { return float64(s.mallocs) }),
		"peak_rss_MB":     float64(rss) / 1e6,
		"setup_s":         median(setups),
	}
	return makeResult(endToEnd, values, samples, r.errs), r.errs
}

// startProfile starts a CPU profile into path and returns what stops it; with
// an empty path both do nothing.
func startProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// makeResult packs a run's values under the declared names and units.
func makeResult(decls []metricDecl, values map[string]float64, samples []opSample, errs []error) result {
	res := result{Attempted: len(samples), Failed: countFailed(samples), Metrics: map[string]metricValue{}}
	res.Correct = res.Failed == 0 && len(errs) == 0
	for _, m := range decls {
		res.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
	}
	return res
}
