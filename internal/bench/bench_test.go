package bench

import (
	"bytes"
	"testing"

	"pnetcdf/internal/flash"
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
