package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pnetcdf/internal/fault"
	"pnetcdf/internal/flash"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/span"
)

func TestBalancedFactors(t *testing.T) {
	cases := []struct {
		n, k int
		want []int
	}{
		{8, 1, []int{8}},
		{8, 2, []int{2, 4}},
		{8, 3, []int{2, 2, 2}},
		{16, 2, []int{4, 4}},
		{12, 2, []int{3, 4}},
		{7, 2, []int{7, 1}},
		{1, 3, []int{1, 1, 1}},
	}
	for _, c := range cases {
		got := balancedFactors(c.n, c.k)
		prod := 1
		for _, f := range got {
			prod *= f
		}
		if prod != c.n {
			t.Fatalf("factors(%d,%d) = %v, product %d", c.n, c.k, got, prod)
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Fatalf("factors(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
			}
		}
	}
}

func TestDecomposeCoversExactly(t *testing.T) {
	dims := [3]int64{8, 6, 10}
	for _, part := range AllPartitions {
		for _, nprocs := range []int{1, 2, 4, 8} {
			seen := map[[3]int64]int{}
			var total int64
			for r := 0; r < nprocs; r++ {
				start, count := Decompose(part, dims, nprocs, r)
				total += count[0] * count[1] * count[2]
				for z := start[0]; z < start[0]+count[0]; z++ {
					for y := start[1]; y < start[1]+count[1]; y++ {
						for x := start[2]; x < start[2]+count[2]; x++ {
							seen[[3]int64{z, y, x}]++
						}
					}
				}
				// Bounds.
				for d := 0; d < 3; d++ {
					if start[d] < 0 || start[d]+count[d] > dims[d] {
						t.Fatalf("%v p=%d r=%d: dim %d out of bounds: %v+%v",
							part, nprocs, r, d, start, count)
					}
				}
			}
			want := dims[0] * dims[1] * dims[2]
			if total != want {
				t.Fatalf("%v p=%d: covered %d cells, want %d", part, nprocs, total, want)
			}
			for cell, n := range seen {
				if n != 1 {
					t.Fatalf("%v p=%d: cell %v covered %d times", part, nprocs, cell, n)
				}
			}
		}
	}
}

func TestPartitionStrings(t *testing.T) {
	want := []string{"Z", "Y", "X", "ZY", "ZX", "YX", "ZYX"}
	for i, p := range AllPartitions {
		if p.String() != want[i] {
			t.Fatalf("partition %d = %s", i, p)
		}
	}
}

// smallMachine shrinks the simulated system so harness tests run fast.
func smallMachine() MachineSpec {
	m := SDSCBlueHorizon()
	return m
}

func TestFigure6SmallRun(t *testing.T) {
	fig, err := RunFigure6(Fig6Options{
		Machine:    smallMachine(),
		Dims:       [3]int64{32, 32, 32}, // 128 KB
		Procs:      []int{1, 4},
		Partitions: []Partition{PartZ, PartX},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fig.SerialMBps <= 0 {
		t.Fatal("serial baseline not measured")
	}
	for _, part := range []Partition{PartZ, PartX} {
		pts := fig.Points[part]
		if len(pts) != 2 {
			t.Fatalf("%v: %d points", part, len(pts))
		}
		for _, v := range pts {
			if v <= 0 {
				t.Fatalf("%v: nonpositive bandwidth %v", part, v)
			}
		}
	}
	var buf bytes.Buffer
	WriteFigure6(&buf, fig)
	if buf.Len() == 0 || !bytes.Contains(buf.Bytes(), []byte("serial netCDF")) {
		t.Fatalf("table output:\n%s", buf.String())
	}
}

// TestFigure6CompletesUnderFaults: at a 1% fault rate per 64 KiB the
// 64 MiB Figure 6 write completes, the serial baseline included, on every
// seed. The serial baseline writes the array in one request of 1 024
// units, which goes through untouched with probability 0.99^1024 ≈ 3e-5:
// it completes only because a fault cuts the request where it struck and
// pfs resumes it from the cut.
func TestFigure6CompletesUnderFaults(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		fig, err := RunFigure6(Fig6Options{
			Machine:    SDSCBlueHorizon(),
			Dims:       Dims64MB,
			Procs:      []int{2},
			Partitions: []Partition{PartZ, PartX},
			Stats:      true,
			Fault:      FaultOptions{Rate: 0.01, Seed: seed},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var faults int64
		for _, part := range []Partition{PartZ, PartX} {
			if fig.Points[part][0] <= 0 {
				t.Fatalf("seed %d: %v: no bandwidth measured", seed, part)
			}
			faults += fig.Stats[part][0].Sum[iostat.PfsFaultsInjected]
		}
		if fig.SerialMBps <= 0 || faults == 0 {
			t.Fatalf("seed %d: serial %.1f MB/s, %d faults injected in the parallel cells; want both nonzero", seed, fig.SerialMBps, faults)
		}
	}
}

func TestFigure6ScalesWithProcs(t *testing.T) {
	fig, err := RunFigure6(Fig6Options{
		Machine:    smallMachine(),
		Dims:       Dims64MB,
		Procs:      []int{1, 8},
		Partitions: []Partition{PartZ},
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := fig.Points[PartZ]
	// The paper's central scalability claim: more processes, more aggregate
	// bandwidth; and PnetCDF at 8 procs beats the serial baseline.
	if pts[1] <= pts[0] {
		t.Fatalf("no scaling: 1p=%.1f 8p=%.1f MB/s", pts[0], pts[1])
	}
	if pts[1] <= fig.SerialMBps {
		t.Fatalf("PnetCDF 8p (%.1f) not above serial (%.1f)", pts[1], fig.SerialMBps)
	}
}

func TestFigure7SmallRun(t *testing.T) {
	cfg := flash.Config{NXB: 4, NYB: 4, NZB: 4, NGuard: 2, NVar: 4, NPlotVar: 2, BlocksPerProc: 4}
	fig, err := RunFigure7(Fig7Options{
		Machine: ASCIFrost(),
		Config:  cfg,
		File:    FlashCheckpoint,
		Procs:   []int{2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range fig.Procs {
		if fig.PnetCDF[i] <= 0 || fig.HDF5[i] <= 0 {
			t.Fatalf("nonpositive bandwidth at %d procs", fig.Procs[i])
		}
		if fig.PnetCDF[i] <= fig.HDF5[i] {
			t.Fatalf("%d procs: PnetCDF (%.1f) not above HDF5 (%.1f)",
				fig.Procs[i], fig.PnetCDF[i], fig.HDF5[i])
		}
	}
	var buf bytes.Buffer
	WriteFigure7(&buf, fig)
	if !bytes.Contains(buf.Bytes(), []byte("PnetCDF")) {
		t.Fatalf("table output:\n%s", buf.String())
	}
}

func TestAblationsFavorChosenDesign(t *testing.T) {
	m := smallMachine()
	two, err := AblationTwoPhase(m, [3]int64{64, 64, 64}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if two.Speedup() <= 1 {
		t.Fatalf("two-phase not a win: %v", two)
	}
	sv, err := AblationSieving(m, [3]int64{32, 32, 64}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sv.Speedup() <= 1 {
		t.Fatalf("sieving not a win: %v", sv)
	}
	hs, err := AblationHeaderStrategy(m, 200, 8)
	if err != nil {
		t.Fatal(err)
	}
	if hs.Chosen <= 0 || hs.Baseline <= 0 {
		t.Fatalf("header ablation not measured: %v", hs)
	}
	rb, err := AblationRecordBatch(m, 8, 3, 4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Speedup() <= 1 {
		t.Fatalf("record batching not a win: %v", rb)
	}
	lo, err := AblationLayout(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if lo.Speedup() <= 1 {
		t.Fatalf("linear layout not a win: %v", lo)
	}
}

func TestAblationPrefetch(t *testing.T) {
	res, err := AblationPrefetch(smallMachine(), 4, 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup() <= 1 {
		t.Fatalf("prefetch hint not a win for small repeated reads: %v", res)
	}
}

func TestAblationVarAlign(t *testing.T) {
	res, err := AblationVarAlign(smallMachine(), 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup() <= 1 {
		t.Fatalf("var alignment not a win for independent writes: %v", res)
	}
}

// One write aggregator per I/O server beats one per rank on a FLASH
// checkpoint of ten-stripe unknowns on the two-server Frost model: the
// servers take two requests per unknown instead of five.
func TestAblationWriteAggregators(t *testing.T) {
	cfg := flash.Config{NXB: 8, NYB: 8, NZB: 8, NGuard: 4, NVar: 6, NPlotVar: 2, BlocksPerProc: 80}
	res, err := AblationWriteAggregators(ASCIFrost(), cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup() <= 1 {
		t.Fatalf("one write aggregator per server not a win: %v", res)
	}
}

// At 8 ranks the rule's gain (0.6201 → 0.610 s) is inside the spread of its
// four aggregators' server order (0.601–0.625 s); at 16 ranks, six
// aggregators against sixteen, it is several times that spread.
func TestAblationReadAggregators(t *testing.T) {
	cfg := flash.Config{NXB: 8, NYB: 8, NZB: 8, NGuard: 4, NVar: 6, NPlotVar: 2, BlocksPerProc: 80}
	res, err := AblationReadAggregators(ASCIFrost(), cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup() <= 1 {
		t.Fatalf("the read aggregator rule not a win over one per rank: %v", res)
	}
}

// One read round in flight per I/O server beats two on the many-round
// Figure 6 read-back: the same requests, with twelve aggregator reads at the
// servers at once instead of two.
func TestAblationReadDepth(t *testing.T) {
	res, err := AblationReadDepth(SDSCBlueHorizon(), [3]int64{64, 64, 256}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup() <= 1.5 {
		t.Fatalf("one read round in flight per server not a clear win over two: %v", res)
	}
}

// A rank kill in a FLASH read-back run fires in the read, not in the write
// that prepares its file: aggregator rank 4 is killed just after it issues
// its second read round, with the first still in flight. The run fails with
// the revocation naming rank 4, and the file it dumps is the undisturbed
// run's to the byte — the write before the read was not touched.
func TestFlashReadKillTargetsReadBack(t *testing.T) {
	cfg := flash.Config{NXB: 8, NYB: 8, NZB: 8, NGuard: 4, NVar: 2, NPlotVar: 1, BlocksPerProc: 20}
	run := func(fo FaultOptions) ([]byte, error) {
		out := filepath.Join(t.TempDir(), "f.nc")
		opt := Fig7Options{Machine: ASCIFrost(), Config: cfg, File: FlashCheckpoint, Read: true,
			Hints:    mpi.NewInfo().Set("cb_buffer_size", "65536").Set("cb_nodes", "2"),
			Fault:    fo,
			DumpFile: out}
		_, _, err := runFlashOnce(opt, 8, false)
		img, rerr := os.ReadFile(out)
		if rerr != nil {
			t.Fatal(rerr)
		}
		return img, err
	}
	clean, err := run(FaultOptions{})
	if err != nil {
		t.Fatal(err)
	}
	killed, err := run(FaultOptions{KillPoint: fault.KillAfterIssue, KillRank: 4, KillOccurrence: 1})
	if rv, ok := mpi.AsRevoked(err); !ok || fmt.Sprint(rv.Failed) != "[4]" {
		t.Fatalf("killed read-back returned %v, want *mpi.ErrRevoked naming rank 4", err)
	}
	if !bytes.Equal(killed, clean) {
		t.Fatal("the kill disturbed the write before the read-back")
	}
}

// A sweep whose run fails still reports what ran: RunFigure7 returns the
// chart of the process counts measured before the failure beside its error,
// the failed run's counters over all its ranks, and its spans, the
// detection among them. Rank 4 does not exist at 4 processes, so only the
// 8-process run is killed.
func TestFigure7FailedRunKeepsWhatRan(t *testing.T) {
	cfg := flash.Config{NXB: 8, NYB: 8, NZB: 8, NGuard: 4, NVar: 2, NPlotVar: 1, BlocksPerProc: 20}
	fig, err := RunFigure7(Fig7Options{Machine: ASCIFrost(), Config: cfg, File: FlashCheckpoint,
		Procs: []int{4, 8},
		Hints: mpi.NewInfo().Set("cb_buffer_size", "65536").Set("cb_nodes", "2"),
		Fault: FaultOptions{KillPoint: fault.KillMidExchange, KillRank: 4},
		Stats: true, Spans: true})
	if rv, ok := mpi.AsRevoked(err); !ok || fmt.Sprint(rv.Failed) != "[4]" {
		t.Fatalf("killed sweep returned %v, want *mpi.ErrRevoked naming rank 4", err)
	}
	if fig == nil || fmt.Sprint(fig.Procs) != "[4]" || len(fig.PnetCDF) != 1 || len(fig.HDF5) != 1 {
		t.Fatalf("chart of the failed sweep = %+v, want the 4-process run alone", fig)
	}
	if f := fig.Failed; f == nil || f.Procs != 8 || f.Stats == nil || f.Stats.Ranks != 8 ||
		f.Stats.Sum[iostat.FTFailuresDetected] == 0 {
		t.Fatalf("failed run = %+v, want 8 processes with a summary over 8 ranks counting the detection", f)
	}
	checkFailedSpans(t, fig.Spans, 8)
}

// checkFailedSpans holds the spans of a run killed at nprocs ranks to cover
// every rank, the detection among them.
func checkFailedSpans(t *testing.T, spans []span.Span, nprocs int) {
	t.Helper()
	ranks, detected := map[int]bool{}, false
	for _, s := range spans {
		ranks[s.Rank] = true
		detected = detected || s.Phase == span.FTDetect
	}
	if len(ranks) != nprocs || !detected {
		t.Fatalf("the failed run's %d spans cover %d ranks, ft_detect among them: %v; want %d ranks and a detection",
			len(spans), len(ranks), detected, nprocs)
	}
}

// RunFigure6 keeps the same contract: a sweep of one partition at 2 and 4
// processes, rank 3 killed in the exchange (it exists only at 4), returns
// the 2-process cell beside the revocation, and the 4-process run's counters
// and spans.
func TestFigure6FailedRunKeepsWhatRan(t *testing.T) {
	fig, err := RunFigure6(Fig6Options{Machine: smallMachine(), Dims: [3]int64{32, 32, 32},
		Procs: []int{2, 4}, Partitions: []Partition{PartX},
		Fault: FaultOptions{KillPoint: fault.KillMidExchange, KillRank: 3},
		Stats: true, Spans: true})
	if rv, ok := mpi.AsRevoked(err); !ok || fmt.Sprint(rv.Failed) != "[3]" {
		t.Fatalf("killed sweep returned %v, want *mpi.ErrRevoked naming rank 3", err)
	}
	if fig == nil || fig.SerialMBps <= 0 || len(fig.Points[PartX]) != 1 || len(fig.Stats[PartX]) != 1 {
		t.Fatalf("chart of the failed sweep = %+v, want the serial baseline and the 2-process cell", fig)
	}
	if f := fig.Failed; f == nil || f.Partition != PartX || f.Procs != 4 || f.Stats == nil ||
		f.Stats.Ranks != 4 || f.Stats.Sum[iostat.FTFailuresDetected] == 0 {
		t.Fatalf("failed run = %+v, want X at 4 processes with a summary over 4 ranks counting the detection", f)
	}
	checkFailedSpans(t, fig.Spans, 4)
}
