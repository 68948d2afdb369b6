// Command flashio-bench regenerates the paper's Figure 7: the FLASH I/O
// benchmark (checkpoint, plotfile, plotfile with corners) through PnetCDF
// and the HDF5-style library, on a simulated ASCI White Frost-class system
// (2-node GPFS I/O system).
//
// Usage:
//
//	flashio-bench                       # all six charts at default scales
//	flashio-bench -block 16             # only the 16x16x16 charts
//	flashio-bench -procs 16,32,64,128   # choose the process counts
//	flashio-bench -blocks-per-proc 20   # shrink memory use for large runs
//	flashio-bench -stats                # per-layer I/O statistics per run
//	flashio-bench -span-out spans.json  # Chrome-trace spans of the last run
//	flashio-bench -json BENCH_flashio.json   # machine-readable results
//	flashio-bench -fault-rate 0.01 -stats    # inject transient faults; see
//	                                         # the retry counters for the cost
//	flashio-bench -cb-buffer-size 65536 -cb-nodes 2
//	                                    # force multi-round collectives
//	flashio-bench -out f.nc             # dump the raw output image (for
//	                                    # ncdiff byte-identity checks)
//	flashio-bench -queued               # every unknown queued, one WaitAll
//	flashio-bench -kill-rank 3 -kill-point mid_exchange -out f.nc
//	                                    # kill a rank mid-collective: the
//	                                    # survivors detect it and the run
//	                                    # exits non-zero with the revocation
//	                                    # naming rank 3; f.nc still holds
//	                                    # the file, valid at its last
//	                                    # committed header
//
// Note on scale: the paper ran to 512 processes on real hardware. Every
// simulated process here holds its real FLASH block data in this process's
// memory, so default process counts are kept moderate; raise -procs as far
// as memory allows (the -blocks-per-proc flag trades per-process volume for
// process count while keeping the access pattern identical).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pnetcdf/internal/bench"
	"pnetcdf/internal/cmdutil"
	"pnetcdf/internal/flash"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/span"
)

const tool = "flashio-bench"

var (
	block     = flag.String("block", "both", "block size: 8, 16 or both")
	procsStr  = flag.String("procs", "", "comma-separated process counts")
	bpp       = flag.Int("blocks-per-proc", 0, "blocks per process (default 80, the benchmark's value)")
	files     = flag.String("files", "all", "checkpoint, plotfile, corners or all")
	read      = flag.Bool("read", false, "measure checkpoint read-back instead (the paper's future-work comparison)")
	stats     = flag.Bool("stats", false, "print per-layer I/O statistics after each PnetCDF run")
	spanOut   = flag.String("span-out", "", "write the last PnetCDF run's spans as Chrome trace-event JSON (see nctrace)")
	jsonOut   = flag.String("json", "", "write machine-readable results (implies -stats) to this file")
	faultRate = flag.Float64("fault-rate", 0, "transient-fault probability per 64 KiB transferred (0 disables injection)")
	cbBuf     = flag.Int64("cb-buffer-size", 0, "aggregator staging-buffer bytes per two-phase round (default: library default; small values force multi-round collectives)")
	cbNodes   = flag.Int("cb-nodes", 0, "collective-buffering aggregators of both reads and writes (default: a write one per I/O server, a read one per rank unless the request is under a stripe per server per rank, at most one per rank)")
	queued    = flag.Bool("queued", false, "post every unknown with the nonblocking flexible calls and complete them with one WaitAll (default: one collective per unknown, as published)")
	outFile   = flag.String("out", "", "dump the raw image of each PnetCDF output file to this path (disables Discard; last run wins)")
	faultSeed = flag.Uint64("fault-seed", 1, "seed for the deterministic fault schedule")
	killRank  = flag.Int("kill-rank", -1, "world rank to kill at -kill-point during the PnetCDF runs — with -read, during the read-back; the run then fails with the revocation every survivor returns (-1 disables)")
	killPoint = flag.String("kill-point", "", "crash point for -kill-rank: before_pack, mid_exchange or after_issue")
	killOcc   = flag.Int64("kill-occurrence", 0, "which passage of -kill-rank through -kill-point fires (0-based)")
	cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
)

// benchRecord is one PnetCDF data point in the -json output.
type benchRecord struct {
	File     string           `json:"file"`
	Block    string           `json:"block"`
	Procs    int              `json:"procs"`
	MBps     float64          `json:"mbps"`
	HDF5MBps float64          `json:"hdf5_mbps"`
	Counters map[string]int64 `json:"counters,omitempty"`
	// Error is set on the run that failed and ended the sweep; its
	// counters are what its ranks recorded up to the failure.
	Error string `json:"error,omitempty"`
}

// benchOutput is the top-level -json document.
type benchOutput struct {
	Benchmark string        `json:"benchmark"`
	Machine   string        `json:"machine"`
	Read      bool          `json:"read"`
	Runs      []benchRecord `json:"runs"`
}

func main() {
	flag.Parse()
	defer cmdutil.StartProfiles(tool, *cpuProf, *memProf)()
	if (*killRank >= 0) != (*killPoint != "") {
		cmdutil.Usagef("flashio-bench: -kill-rank and -kill-point must be set together")
	}
	machine := bench.ASCIFrost()
	collect := *stats || *jsonOut != ""
	var configs []flash.Config
	switch *block {
	case "8":
		configs = []flash.Config{flash.Default8()}
	case "16":
		configs = []flash.Config{flash.Default16()}
	case "both":
		configs = []flash.Config{flash.Default8(), flash.Default16()}
	default:
		cmdutil.Usagef("flashio-bench: -block must be 8, 16 or both")
	}
	var kinds []bench.FlashFile
	if *read {
		*files = "checkpoint"
	}
	switch strings.ToLower(*files) {
	case "checkpoint":
		kinds = []bench.FlashFile{bench.FlashCheckpoint}
	case "plotfile":
		kinds = []bench.FlashFile{bench.FlashPlotfile}
	case "corners":
		kinds = []bench.FlashFile{bench.FlashCorners}
	case "all":
		kinds = []bench.FlashFile{bench.FlashCheckpoint, bench.FlashPlotfile, bench.FlashCorners}
	default:
		cmdutil.Usagef("flashio-bench: -files must be checkpoint, plotfile, corners or all")
	}
	out := benchOutput{Benchmark: "flashio", Machine: machine.Name, Read: *read}
	// A failed run ends the sweep, but what ran is still reported: the
	// tables and -json records of the runs that completed and of the failed
	// one, and the failed one's spans; then the tool exits 1 with the error.
	var runErr error
	var spans []span.Span // the last PnetCDF run's
	var dropped int64
sweep:
	for _, cfg := range configs {
		if *bpp > 0 {
			cfg.BlocksPerProc = *bpp
		}
		cfg.Queued = *queued
		plist := defaultProcs(cfg)
		if *procsStr != "" {
			plist = nil
			for _, s := range strings.Split(*procsStr, ",") {
				var p int
				if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &p); err != nil || p < 1 {
					cmdutil.Usagef("flashio-bench: bad proc count %q", s)
				}
				plist = append(plist, p)
			}
		}
		for _, kind := range kinds {
			var hints *mpi.Info
			if *cbBuf > 0 || *cbNodes > 0 {
				hints = mpi.NewInfo()
				if *cbBuf > 0 {
					hints.Set("cb_buffer_size", strconv.FormatInt(*cbBuf, 10))
				}
				if *cbNodes > 0 {
					hints.Set("cb_nodes", strconv.Itoa(*cbNodes))
				}
			}
			fig, err := bench.RunFigure7(bench.Fig7Options{
				Machine: machine,
				Config:  cfg,
				File:    kind,
				Procs:   plist,
				Discard: *outFile == "",
				Read:    *read,
				Stats:   collect,
				Spans:   *spanOut != "",
				Fault: bench.FaultOptions{
					Rate: *faultRate, Seed: *faultSeed,
					KillPoint: *killPoint, KillRank: *killRank, KillOccurrence: *killOcc,
				},
				Hints:    hints,
				DumpFile: *outFile,
			})
			if len(fig.Procs) > 0 {
				bench.WriteFigure7(os.Stdout, fig)
				fmt.Println()
			}
			// report prints one PnetCDF run's table and adds its -json record.
			report := func(rec benchRecord, sum *iostat.Summary, note string) {
				if *stats && sum != nil {
					fmt.Printf("I/O statistics: %s %s, %d procs (PnetCDF%s)\n",
						fig.File, fig.Block, rec.Procs, note)
					iostat.WriteTable(os.Stdout, sum)
					fmt.Println()
				}
				rec.File, rec.Block, rec.Counters = fig.File.String(), fig.Block, sum.KeyCounters()
				out.Runs = append(out.Runs, rec)
			}
			for i, p := range fig.Procs {
				report(benchRecord{Procs: p, MBps: fig.PnetCDF[i], HDF5MBps: fig.HDF5[i]}, fig.Stats[i], "")
			}
			spans, dropped = fig.Spans, fig.Dropped
			if runErr = err; runErr != nil {
				report(benchRecord{Procs: fig.Failed.Procs, Error: err.Error()}, fig.Failed.Stats, ", failed")
				break sweep
			}
		}
	}
	if *spanOut != "" {
		cmdutil.WriteSpanFile(tool, *spanOut, spans, dropped)
		fmt.Printf("spans: %d spans to %s (%d dropped)\n", len(spans), *spanOut, dropped)
	}
	if *jsonOut != "" {
		blob, err := json.MarshalIndent(out, "", "  ")
		cmdutil.Fatal(tool, err)
		cmdutil.Fatal(tool, os.WriteFile(*jsonOut, append(blob, '\n'), 0o644))
		fmt.Printf("results: %d runs to %s\n", len(out.Runs), *jsonOut)
	}
	cmdutil.Fatal(tool, runErr)
}

// defaultProcs keeps the default run within a laptop-class memory budget:
// the 8^3 blocks are cheap (8 MB/proc checkpoint), the 16^3 blocks hold
// ~9 MB of guarded data per unknown per process.
func defaultProcs(cfg flash.Config) []int {
	if cfg.NXB >= 16 {
		return []int{4, 8, 16, 32}
	}
	return []int{4, 8, 16, 32, 64}
}
