// Command pnetcdf-bench regenerates the paper's Figure 6: read and write
// bandwidth of a 3-D array through serial netCDF (one process) and PnetCDF
// (collective I/O) over the seven partition patterns of Figure 5, on a
// simulated SDSC Blue Horizon-class system (12 GPFS I/O nodes).
//
// Usage:
//
//	pnetcdf-bench                 # both 64 MB charts (write + read)
//	pnetcdf-bench -size 1gb      # the 1 GB charts (procs up to 32)
//	pnetcdf-bench -op write      # only the write chart
//	pnetcdf-bench -ablate        # the design-choice ablations
//	pnetcdf-bench -stats         # per-layer I/O statistics per run
//	pnetcdf-bench -span-out s.json       # Chrome-trace spans of the last run
//	pnetcdf-bench -fault-rate 0.01 -stats  # inject transient faults
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pnetcdf/internal/bench"
	"pnetcdf/internal/cmdutil"
	"pnetcdf/internal/flash"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/span"
)

const tool = "pnetcdf-bench"

var (
	size      = flag.String("size", "64mb", "dataset size: 64mb or 1gb")
	op        = flag.String("op", "both", "operation: write, read or both")
	procs     = flag.String("procs", "", "comma-separated process counts (default per paper)")
	ablate    = flag.Bool("ablate", false, "run the design-choice ablations instead")
	stats     = flag.Bool("stats", false, "print per-layer I/O statistics after each run")
	spanOut   = flag.String("span-out", "", "write the last run's spans as Chrome trace-event JSON (see nctrace)")
	faultRate = flag.Float64("fault-rate", 0, "transient-fault probability per 64 KiB transferred (0 disables injection)")
	faultSeed = flag.Uint64("fault-seed", 1, "seed for the deterministic fault schedule")
	cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
)

func main() {
	flag.Parse()
	defer cmdutil.StartProfiles(tool, *cpuProf, *memProf)()
	machine := bench.SDSCBlueHorizon()
	if *ablate {
		runAblations(machine)
		return
	}
	var dims [3]int64
	var plist []int
	discard := false
	switch strings.ToLower(*size) {
	case "64mb":
		dims = bench.Dims64MB
		plist = []int{1, 2, 4, 8, 16}
	case "1gb":
		dims = bench.Dims1GB
		plist = []int{1, 2, 4, 8, 16, 32}
		discard = true // timing-only storage for the large runs
	default:
		cmdutil.Usagef("pnetcdf-bench: -size must be 64mb or 1gb")
	}
	if *procs != "" {
		plist = nil
		for _, s := range strings.Split(*procs, ",") {
			var p int
			if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &p); err != nil || p < 1 {
				cmdutil.Usagef("pnetcdf-bench: bad proc count %q", s)
			}
			plist = append(plist, p)
		}
	}
	ops := []bool{false, true} // write, read
	switch strings.ToLower(*op) {
	case "write":
		ops = []bool{false}
	case "read":
		ops = []bool{true}
	case "both":
	default:
		cmdutil.Usagef("pnetcdf-bench: -op must be write, read or both")
	}
	var spans *span.Sink
	if *spanOut != "" {
		spans = new(span.Sink)
	}
	for _, read := range ops {
		fig, err := bench.RunFigure6(bench.Fig6Options{
			Machine: machine,
			Dims:    dims,
			Procs:   plist,
			Read:    read,
			Discard: discard,
			Stats:   *stats,
			Spans:   spans,
			Fault:   bench.FaultOptions{Rate: *faultRate, Seed: *faultSeed},
		})
		cmdutil.Fatal(tool, err)
		bench.WriteFigure6(os.Stdout, fig)
		fmt.Println()
		if *stats {
			for _, part := range bench.AllPartitions {
				sums := fig.Stats[part]
				for i, p := range fig.Procs {
					if i >= len(sums) || sums[i] == nil {
						continue
					}
					fmt.Printf("I/O statistics: %s partition %v, %d procs\n",
						fig.Op, part, p)
					iostat.WriteTable(os.Stdout, sums[i])
					fmt.Println()
				}
			}
		}
	}
	if spans != nil {
		sp, dropped := spans.Snapshot()
		cmdutil.WriteSpanFile(tool, *spanOut, sp, dropped)
		fmt.Printf("spans: %d spans to %s (%d dropped)\n", len(sp), *spanOut, dropped)
	}
}

func runAblations(m bench.MachineSpec) {
	fmt.Println("Design-choice ablations (SDSC-class machine, virtual time)")
	type runner func() (bench.AblationResult, error)
	for _, r := range []runner{
		func() (bench.AblationResult, error) { return bench.AblationTwoPhase(m, [3]int64{128, 128, 128}, 8) },
		func() (bench.AblationResult, error) { return bench.AblationSieving(m, [3]int64{64, 64, 128}, 4) },
		func() (bench.AblationResult, error) { return bench.AblationHeaderStrategy(m, 500, 16) },
		func() (bench.AblationResult, error) { return bench.AblationRecordBatch(m, 24, 4, 8, 64<<10) },
		func() (bench.AblationResult, error) { return bench.AblationLayout(m, 8) },
		func() (bench.AblationResult, error) { return bench.AblationPrefetch(m, 8, 200) },
		func() (bench.AblationResult, error) { return bench.AblationVarAlign(m, 16, 4) },
		func() (bench.AblationResult, error) {
			return bench.AblationWriteAggregators(bench.ASCIFrost(), flash.Default8(), 8)
		},
	} {
		res, err := r()
		cmdutil.Fatal(tool, err)
		fmt.Println(" ", res)
	}
}
