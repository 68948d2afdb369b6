package mpitype

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func segsEq(a, b []Segment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// contig is n contiguous units, MPI_Type_contiguous of a unit: the whole of
// a one-dimensional array.
func contig(n int64) Datatype {
	d, err := Subarray([]int64{n}, []int64{n}, []int64{0}, 1)
	if err != nil {
		panic(err)
	}
	return d
}

// TestContig: the whole of a one-dimensional array is one run whose extent
// is its size; an empty one selects nothing.
func TestContig(t *testing.T) {
	d := contig(16)
	if d.Size() != 16 || d.extent != 16 || !segsEq(d.Segments(), []Segment{{0, 16}}) {
		t.Fatalf("contig(16): size=%d extent=%d segs=%v", d.Size(), d.extent, d.Segments())
	}
	z := contig(0)
	if z.Size() != 0 || z.NumSegments() != 0 {
		t.Fatal("contig(0) not empty")
	}
}

func TestFromSegmentsMergesAndValidates(t *testing.T) {
	d, err := FromSegments([]Segment{{8, 4}, {0, 4}, {4, 4}, {20, 2}}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !segsEq(d.Segments(), []Segment{{0, 12}, {20, 2}}) {
		t.Fatalf("merged = %v", d.Segments())
	}
	if d.Size() != 14 || d.extent != 30 {
		t.Fatalf("size=%d extent=%d", d.Size(), d.extent)
	}
	if _, err := FromSegments([]Segment{{0, 4}, {2, 4}}, 10); err == nil {
		t.Fatal("overlap accepted")
	}
	if _, err := FromSegments([]Segment{{0, 4}}, 2); err == nil {
		t.Fatal("short extent accepted")
	}
	if _, err := FromSegments([]Segment{{-1, 4}}, 10); err == nil {
		t.Fatal("negative offset accepted")
	}
}

// TestVector: MPI_Type_vector's strided blocks are the leading columns of
// a two-dimensional array, one row per block, the row as long as the stride.
func TestVector(t *testing.T) {
	// 3 blocks of 2 units, stride 4: XX..XX..XX..
	d, err := Subarray([]int64{3, 4}, []int64{3, 2}, []int64{0, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []Segment{{0, 2}, {4, 2}, {8, 2}}
	if !segsEq(d.Segments(), want) {
		t.Fatalf("vector segs = %v, want %v", d.Segments(), want)
	}
	if d.Size() != 6 || d.extent != 12 {
		t.Fatalf("size=%d extent=%d", d.Size(), d.extent)
	}
	if _, err := Subarray([]int64{2, 2}, []int64{2, 3}, []int64{0, 0}, 1); err == nil {
		t.Fatal("blocks longer than the stride accepted")
	}
}

// TestContiguousOfVector: instances of a type tile at its extent, which may
// end past its last run.
func TestContiguousOfVector(t *testing.T) {
	v, err := FromSegments([]Segment{{0, 1}, {2, 1}}, 3) // X.X (extent 3)
	if err != nil {
		t.Fatal(err)
	}
	// Tiling at extent 3: X.XX.X
	want := []Segment{{0, 1}, {2, 2}, {5, 1}}
	if got := v.Tiled(nil, 0, 2); !segsEq(got, want) {
		t.Fatalf("segs = %v, want %v", got, want)
	}
}

func TestSubarray2D(t *testing.T) {
	// 4x6 array of 1-unit elements; take rows 1..2, cols 2..4.
	d, err := Subarray([]int64{4, 6}, []int64{2, 3}, []int64{1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []Segment{{8, 3}, {14, 3}}
	if !segsEq(d.Segments(), want) {
		t.Fatalf("subarray = %v, want %v", d.Segments(), want)
	}
	if d.extent != 24 || d.Size() != 6 {
		t.Fatalf("size=%d extent=%d", d.Size(), d.extent)
	}
}

func TestSubarrayFullTrailingDimsCollapse(t *testing.T) {
	// Full trailing dims -> one segment per outer index.
	d, err := Subarray([]int64{5, 4, 3}, []int64{2, 4, 3}, []int64{1, 0, 0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []Segment{{48, 96}}
	if !segsEq(d.Segments(), want) {
		t.Fatalf("segs = %v, want %v (collapsed contiguous slab)", d.Segments(), want)
	}
	// Whole array collapses to one run.
	w, err := Subarray([]int64{5, 4}, []int64{5, 4}, []int64{0, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !segsEq(w.Segments(), []Segment{{0, 40}}) || w.extent != 40 {
		t.Fatalf("whole-array subarray not contiguous: %v", w.Segments())
	}
}

func TestSubarrayZeroAndErrors(t *testing.T) {
	d, err := Subarray([]int64{4, 4}, []int64{0, 4}, []int64{0, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 0 || d.extent != 16 {
		t.Fatalf("zero subarray: size=%d extent=%d", d.Size(), d.extent)
	}
	if _, err := Subarray([]int64{4}, []int64{3}, []int64{2}, 1); err == nil {
		t.Fatal("out-of-bounds subarray accepted")
	}
	if _, err := Subarray([]int64{4}, []int64{1, 1}, []int64{0}, 1); err == nil {
		t.Fatal("rank mismatch accepted")
	}
	if _, err := Subarray([]int64{4}, []int64{1}, []int64{0}, 0); err == nil {
		t.Fatal("zero elem size accepted")
	}
}

// Oracle: subarray segments must select exactly the elements a nested loop
// selects.
func TestQuickSubarrayOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nd := rng.Intn(3) + 1
		sizes := make([]int64, nd)
		subs := make([]int64, nd)
		starts := make([]int64, nd)
		for i := range sizes {
			sizes[i] = int64(rng.Intn(5) + 1)
			subs[i] = int64(rng.Intn(int(sizes[i]))) + 1
			starts[i] = int64(rng.Intn(int(sizes[i]-subs[i]) + 1))
		}
		elem := int64(rng.Intn(3) + 1)
		d, err := Subarray(sizes, subs, starts, elem)
		if err != nil {
			return false
		}
		// Build the oracle set of selected units.
		total := elem
		for _, s := range sizes {
			total *= s
		}
		want := make([]bool, total)
		var walk func(dim int, off int64)
		walk = func(dim int, off int64) {
			if dim == nd {
				for u := int64(0); u < elem; u++ {
					want[off*elem+u] = true
				}
				return
			}
			stride := int64(1)
			for i := dim + 1; i < nd; i++ {
				stride *= sizes[i]
			}
			for k := starts[dim]; k < starts[dim]+subs[dim]; k++ {
				walk(dim+1, off+k*stride)
			}
		}
		walk(0, 0)
		got := make([]bool, total)
		for _, s := range d.Segments() {
			for u := s.Off; u < s.Off+s.Len; u++ {
				got[u] = true
			}
		}
		for i := range want {
			if want[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestResized: a typemap given an extent past its end, as
// MPI_Type_create_resized gives one, tiles at that extent.
func TestResized(t *testing.T) {
	r, err := FromSegments([]Segment{{0, 4}}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if r.extent != 16 || r.Size() != 4 {
		t.Fatalf("resized: size=%d extent=%d", r.Size(), r.extent)
	}
	segs := r.Tiled(nil, 0, 3)
	want := []Segment{{0, 4}, {16, 4}, {32, 4}}
	if !segsEq(segs, want) {
		t.Fatalf("tiled resized = %v, want %v", segs, want)
	}
	if _, err := FromSegments([]Segment{{0, 4}}, 2); err == nil {
		t.Fatal("an extent below the typemap end accepted")
	}
}

func TestTiledMergesAcrossInstances(t *testing.T) {
	d := contig(8)
	segs := d.Tiled(nil, 100, 4)
	if !segsEq(segs, []Segment{{100, 32}}) {
		t.Fatalf("contig tiling should merge: %v", segs)
	}
}

func TestSegmentsForRange(t *testing.T) {
	// Filetype X.X. (2 units data per 4-unit extent), disp 100.
	d, err := Subarray([]int64{2, 2}, []int64{2, 1}, []int64{0, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// First 5 data units: tiles at 100 (units 0,2) 104 (units 4,6) 108 (unit 8)
	segs, err := d.SegmentsForRange(100, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []Segment{{100, 1}, {102, 1}, {104, 1}, {106, 1}, {108, 1}}
	if !segsEq(segs, want) {
		t.Fatalf("range = %v, want %v", segs, want)
	}
	// Skip 3 data units, read 2: units 3,4 -> offsets 106, 108.
	segs, err = d.SegmentsForRange(100, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	want = []Segment{{106, 1}, {108, 1}}
	if !segsEq(segs, want) {
		t.Fatalf("skip range = %v, want %v", segs, want)
	}
	// Contiguous view merges into a single extent.
	c := contig(4)
	segs, err = c.SegmentsForRange(0, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !segsEq(segs, []Segment{{2, 10}}) {
		t.Fatalf("contig range = %v", segs)
	}
	// Empty type cannot produce data units.
	if _, err := (Datatype{}).SegmentsForRange(0, 0, 1); err == nil {
		t.Fatal("empty type produced data")
	}
}

// Property: size equals the sum of segment lengths and segments stay within
// the extent, for random subarrays.
func TestQuickInvariants(t *testing.T) {
	f := func(a, b, c uint8) bool {
		sizes := []int64{int64(a%6) + 1, int64(b%6) + 1, int64(c%6) + 1}
		subs := []int64{sizes[0], (sizes[1] + 1) / 2, (sizes[2] + 1) / 2}
		starts := []int64{0, sizes[1] - subs[1], sizes[2] - subs[2]}
		d, err := Subarray(sizes, subs, starts, 4)
		if err != nil {
			return false
		}
		var sum int64
		for _, s := range d.Segments() {
			sum += s.Len
			if s.Off < 0 || s.Off+s.Len > d.extent {
				return false
			}
		}
		return sum == d.Size() && d.Size() == 4*subs[0]*subs[1]*subs[2]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestContiguousEdgeCases: the edges of a contiguous run of elements — the
// whole of a one-dimensional array of elem-unit elements.
func TestContiguousEdgeCases(t *testing.T) {
	z, err := Subarray([]int64{0}, []int64{0}, []int64{0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if z.Size() != 0 || z.extent != 0 {
		t.Fatalf("zero contiguous: size=%d extent=%d", z.Size(), z.extent)
	}
	if _, err := Subarray([]int64{-2}, []int64{-2}, []int64{0}, 4); err == nil {
		t.Fatal("negative count accepted")
	}
	// Contiguous elements collapse to one segment.
	d, err := Subarray([]int64{5}, []int64{5}, []int64{0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !segsEq(d.Segments(), []Segment{{0, 15}}) || d.extent != 15 {
		t.Fatalf("contig of contig: %v", d.Segments())
	}
}

// TestFromSegmentsAdoptsFlattenedInput: input that already is a typemap is
// kept, not copied — the Datatype's runs are the caller's array — while
// anything else is normalized into a fresh list and the caller's slice is
// left as it was. Every rejection holds on both routes.
func TestFromSegmentsAdoptsFlattenedInput(t *testing.T) {
	flat := []Segment{{0, 4}, {8, 4}, {20, 2}}
	d, err := FromSegments(flat, 30)
	if err != nil {
		t.Fatal(err)
	}
	if &d.Runs()[0] != &flat[0] || d.NumSegments() != 3 || d.Size() != 10 || d.extent != 30 {
		t.Fatalf("flattened input was not adopted as is: %v size %d", d.Runs(), d.Size())
	}
	if got := d.Segments(); &got[0] == &flat[0] {
		t.Fatal("Segments must still return a copy")
	}

	// Not pre-merged: adjacency still merges, into a list of the type's own.
	adjacent := []Segment{{0, 4}, {4, 4}, {20, 2}}
	d, err = FromSegments(adjacent, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !segsEq(d.Runs(), []Segment{{0, 8}, {20, 2}}) || d.Size() != 10 {
		t.Fatalf("adjacent input merged to %v", d.Runs())
	}
	if !segsEq(adjacent, []Segment{{0, 4}, {4, 4}, {20, 2}}) {
		t.Fatalf("the caller's unmerged slice was modified: %v", adjacent)
	}

	// Descending input is not a typemap: it is sorted into a copy, never
	// adopted in the caller's order.
	desc := []Segment{{20, 2}, {8, 4}, {0, 4}}
	d, err = FromSegments(desc, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !segsEq(d.Runs(), flat) || &d.Runs()[0] == &desc[0] {
		t.Fatalf("descending input gave %v", d.Runs())
	}
	if !segsEq(desc, []Segment{{20, 2}, {8, 4}, {0, 4}}) {
		t.Fatalf("the caller's descending slice was modified: %v", desc)
	}

	// Empty segments are dropped, and an all-empty list is the empty type.
	d, err = FromSegments([]Segment{{0, 4}, {6, 0}, {8, 4}}, 12)
	if err != nil || !segsEq(d.Runs(), []Segment{{0, 4}, {8, 4}}) {
		t.Fatalf("empty segment not dropped: %v, %v", d.Runs(), err)
	}
	if d, err = FromSegments([]Segment{{3, 0}}, 5); err != nil || d.Runs() != nil || d.Size() != 0 {
		t.Fatalf("all-empty input gave %v, %v", d.Runs(), err)
	}

	for name, bad := range map[string][]Segment{
		"overlap in ascending input":  {{0, 4}, {8, 4}, {10, 4}},
		"overlap in descending input": {{10, 4}, {8, 4}, {0, 4}},
		"duplicate":                   {{0, 4}, {0, 4}},
		"negative offset":             {{0, 4}, {-8, 4}},
		"negative length":             {{0, 4}, {8, -4}},
		"negative after overlap":      {{0, 4}, {2, 4}, {9, -1}},
	} {
		if _, err := FromSegments(bad, 100); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := FromSegments(flat, 21); err == nil {
		t.Error("adopted input with a short extent accepted")
	}
}

// unitOffsets is the oracle for SegmentsForRange: the absolute offset of
// every data unit of the range, one by one, merged into runs.
func unitOffsets(d Datatype, disp, skip, n int64) []Segment {
	var out []Segment
	for k := skip; k < skip+n; k++ {
		tile, within := k/d.Size(), k%d.Size()
		for _, s := range d.Runs() {
			if within < s.Len {
				off := disp + tile*d.extent + s.Off + within
				if m := len(out); m > 0 && out[m-1].Off+out[m-1].Len == off {
					out[m-1].Len++
				} else {
					out = append(out, Segment{off, 1})
				}
				break
			}
			within -= s.Len
		}
	}
	return out
}

// TestSegmentsForRangeWholeTileFastPath: a range that is exactly one instance
// landing at offset 0 returns the typemap itself; on 2000 random views and
// ranges — tile-aligned and not, displacement zero and not — every answer,
// from either path, equals the unit-by-unit oracle.
func TestSegmentsForRangeWholeTileFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	shared := 0
	for i := 0; i < 2000; i++ {
		var segs []Segment
		off := int64(rng.Intn(3))
		for k := 1 + rng.Intn(6); k > 0; k-- {
			l := int64(1 + rng.Intn(5))
			segs = append(segs, Segment{off, l})
			off += l + int64(rng.Intn(4)) // gap 0 leaves a pair FromSegments merges
		}
		d, err := FromSegments(segs, off+int64(rng.Intn(3)))
		if err != nil {
			t.Fatal(err)
		}
		var disp, skip int64
		n := d.Size()
		if rng.Intn(2) == 0 {
			disp = int64(rng.Intn(20))
		}
		switch rng.Intn(4) {
		case 0: // the whole first tile
		case 1: // a whole later tile
			skip = int64(1+rng.Intn(3)) * d.Size()
		case 2: // tile-aligned start, any length
			skip = int64(rng.Intn(3)) * d.Size()
			n = int64(1 + rng.Intn(int(3*d.Size())))
		default:
			skip = int64(rng.Intn(int(2 * d.Size())))
			n = int64(1 + rng.Intn(int(3*d.Size())))
		}
		got, err := d.SegmentsForRange(disp, skip, n)
		if err != nil {
			t.Fatal(err)
		}
		if want := unitOffsets(d, disp, skip, n); !segsEq(got, want) {
			t.Fatalf("view %v extent %d: SegmentsForRange(%d, %d, %d) = %v, want %v",
				d.Runs(), d.extent, disp, skip, n, got, want)
		}
		whole := disp == 0 && skip == 0 && n == d.Size()
		if is := &got[0] == &d.Runs()[0]; is != whole {
			t.Fatalf("view %v: SegmentsForRange(%d, %d, %d) shares the typemap = %v, want %v",
				d.Runs(), disp, skip, n, is, whole)
		}
		if whole {
			shared++
		}
	}
	if shared < 100 {
		t.Fatalf("only %d of 2000 cases took the whole-tile path", shared)
	}
}
