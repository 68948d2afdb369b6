package access

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pnetcdf/internal/cdf"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/nctype"
)

// fixture: dimensions t(unlimited), z=4, y=3, x=5; variables
// float cube(z,y,x); int series(t,y,x).
func fixture(t *testing.T) (*cdf.Header, *cdf.Var, *cdf.Var) {
	t.Helper()
	h := &cdf.Header{Version: 1}
	h.Dims = []cdf.Dim{{Name: "t", Len: 0}, {Name: "z", Len: 4}, {Name: "y", Len: 3}, {Name: "x", Len: 5}}
	h.Vars = []cdf.Var{
		{Name: "cube", DimIDs: []int{1, 2, 3}, Type: nctype.Float},
		{Name: "series", DimIDs: []int{0, 2, 3}, Type: nctype.Int},
	}
	if err := h.ComputeLayout(1); err != nil {
		t.Fatal(err)
	}
	h.NumRecs = 6
	return h, &h.Vars[0], &h.Vars[1]
}

func TestValidateBounds(t *testing.T) {
	h, cube, series := fixture(t)
	ok := func(v *cdf.Var, start, count, stride []int64, writing bool) error {
		_, err := Validate(h, v, start, count, stride, writing)
		return err
	}
	if err := ok(cube, []int64{0, 0, 0}, []int64{4, 3, 5}, nil, false); err != nil {
		t.Fatalf("whole cube: %v", err)
	}
	if err := ok(cube, []int64{3, 2, 4}, []int64{1, 1, 1}, nil, false); err != nil {
		t.Fatalf("last corner: %v", err)
	}
	if err := ok(cube, []int64{0, 0, 0}, []int64{5, 1, 1}, nil, false); err == nil {
		t.Fatal("over-edge accepted")
	}
	if err := ok(cube, []int64{2, 0, 0}, []int64{2, 1, 1}, []int64{2, 1, 1}, false); err == nil {
		t.Fatal("strided over-edge accepted (last index 4 >= bound 4)")
	}
	if err := ok(cube, []int64{0, 0, 0}, []int64{2, 1, 1}, []int64{2, 1, 1}, false); err != nil {
		t.Fatalf("strided in-bounds rejected: %v", err)
	}
	if err := ok(cube, []int64{-1, 0, 0}, []int64{1, 1, 1}, nil, false); err == nil {
		t.Fatal("negative start accepted")
	}
	if err := ok(cube, []int64{0, 0, 0}, []int64{1, 1, 1}, []int64{0, 1, 1}, false); err == nil {
		t.Fatal("zero stride accepted")
	}
	if err := ok(cube, []int64{0}, []int64{1}, nil, false); err == nil {
		t.Fatal("rank mismatch accepted")
	}
	// Record variable: reads bounded by NumRecs, writes unbounded.
	if err := ok(series, []int64{5, 0, 0}, []int64{1, 3, 5}, nil, false); err != nil {
		t.Fatalf("read last record: %v", err)
	}
	if err := ok(series, []int64{6, 0, 0}, []int64{1, 3, 5}, nil, false); err == nil {
		t.Fatal("read beyond NumRecs accepted")
	}
	req, err := Validate(h, series, []int64{100, 0, 0}, []int64{2, 3, 5}, nil, true)
	if err != nil {
		t.Fatalf("write beyond NumRecs rejected: %v", err)
	}
	if req.LastRecord != 101 {
		t.Fatalf("LastRecord = %d, want 101", req.LastRecord)
	}
	if req.NElems != 2*3*5 {
		t.Fatalf("NElems = %d", req.NElems)
	}
}

// oracleOffsets lists, in buffer element order, the file byte offset of each
// element of the request, computed the naive way.
func oracleOffsets(h *cdf.Header, v *cdf.Var, req Request) []int64 {
	elem := int64(v.Type.Size())
	nd := len(v.DimIDs)
	shape := make([]int64, nd)
	for i, id := range v.DimIDs {
		shape[i] = h.Dims[id].Len
	}
	isRec := h.IsRecordVar(v)
	var out []int64
	idx := make([]int64, nd)
	var walk func(dim int)
	walk = func(dim int) {
		if dim == nd {
			off := v.Begin
			var inner int64
			for i := 0; i < nd; i++ {
				pos := req.Start[i] + idx[i]*req.Stride[i]
				if i == 0 && isRec {
					off += pos * h.RecSize()
					continue
				}
				stride := elem
				for j := i + 1; j < nd; j++ {
					stride *= shape[j]
				}
				inner += pos * stride
			}
			out = append(out, off+inner)
			return
		}
		for k := int64(0); k < req.Count[dim]; k++ {
			idx[dim] = k
			walk(dim + 1)
		}
	}
	walk(0)
	return out
}

func expandSegs(segs []mpitype.Segment, elem int64) []int64 {
	var out []int64
	for _, s := range segs {
		for o := s.Off; o < s.Off+s.Len; o += elem {
			out = append(out, o)
		}
	}
	return out
}

func TestFileSegmentsOracleFixed(t *testing.T) {
	h, cube, _ := fixture(t)
	cases := []struct{ start, count, stride []int64 }{
		{[]int64{0, 0, 0}, []int64{4, 3, 5}, nil},
		{[]int64{1, 1, 1}, []int64{2, 2, 3}, nil},
		{[]int64{0, 0, 0}, []int64{2, 2, 2}, []int64{2, 2, 2}},
		{[]int64{3, 2, 4}, []int64{1, 1, 1}, nil},
		{[]int64{0, 0, 1}, []int64{1, 3, 2}, []int64{1, 1, 3}},
	}
	for i, c := range cases {
		req, err := Validate(h, cube, c.start, c.count, c.stride, false)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		segs := FileSegments(h, cube, req)
		got := expandSegs(segs, 4)
		want := oracleOffsets(h, cube, req)
		if len(got) != len(want) {
			t.Fatalf("case %d: %d offsets, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("case %d elem %d: off %d, want %d", i, j, got[j], want[j])
			}
		}
	}
}

func TestFileSegmentsOracleRecord(t *testing.T) {
	h, _, series := fixture(t)
	cases := []struct{ start, count, stride []int64 }{
		{[]int64{0, 0, 0}, []int64{6, 3, 5}, nil},
		{[]int64{2, 1, 2}, []int64{3, 2, 2}, nil},
		{[]int64{0, 0, 0}, []int64{3, 1, 5}, []int64{2, 1, 1}},
		{[]int64{5, 2, 4}, []int64{1, 1, 1}, nil},
	}
	for i, c := range cases {
		req, err := Validate(h, series, c.start, c.count, c.stride, false)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		segs := FileSegments(h, series, req)
		got := expandSegs(segs, 4)
		want := oracleOffsets(h, series, req)
		if len(got) != len(want) {
			t.Fatalf("case %d: %d offsets, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("case %d elem %d: off %d, want %d", i, j, got[j], want[j])
			}
		}
	}
}

func TestQuickFileSegmentsOracle(t *testing.T) {
	h, cube, series := fixture(t)
	f := func(seed int64, rec bool) bool {
		rng := rand.New(rand.NewSource(seed))
		v := cube
		if rec {
			v = series
		}
		nd := len(v.DimIDs)
		start := make([]int64, nd)
		count := make([]int64, nd)
		stride := make([]int64, nd)
		for i := 0; i < nd; i++ {
			bound := h.Dims[v.DimIDs[i]].Len
			if i == 0 && rec {
				bound = h.NumRecs
			}
			start[i] = rng.Int63n(bound)
			stride[i] = rng.Int63n(3) + 1
			maxCount := (bound-start[i]-1)/stride[i] + 1
			count[i] = rng.Int63n(maxCount) + 1
		}
		req, err := Validate(h, v, start, count, stride, false)
		if err != nil {
			return false
		}
		got := expandSegs(FileSegments(h, v, req), 4)
		want := oracleOffsets(h, v, req)
		if len(got) != len(want) {
			return false
		}
		for j := range want {
			if got[j] != want[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFileViewMatchesSegments(t *testing.T) {
	h, cube, _ := fixture(t)
	req, err := Validate(h, cube, []int64{1, 0, 2}, []int64{2, 3, 2}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	view, err := FileView(h, cube, req)
	if err != nil {
		t.Fatal(err)
	}
	if view.Size() != req.NElems*4 {
		t.Fatalf("view size %d, want %d", view.Size(), req.NElems*4)
	}
	segs := FileSegments(h, cube, req)
	vsegs := view.Segments()
	if len(segs) != len(vsegs) {
		t.Fatalf("view has %d segs, direct %d", len(vsegs), len(segs))
	}
	for i := range segs {
		if segs[i] != vsegs[i] {
			t.Fatalf("seg %d: %+v vs %+v", i, segs[i], vsegs[i])
		}
	}
}

func TestZeroCountRequests(t *testing.T) {
	h, cube, _ := fixture(t)
	req, err := Validate(h, cube, []int64{0, 0, 0}, []int64{0, 3, 5}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if req.NElems != 0 {
		t.Fatalf("NElems = %d", req.NElems)
	}
	if segs := FileSegments(h, cube, req); len(segs) != 0 {
		t.Fatalf("zero-count produced segments: %v", segs)
	}
}

func TestMemSegmentsNaturalAndMapped(t *testing.T) {
	// Natural packing: one run.
	segs, err := MemSegments([]int64{2, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0] != (mpitype.Segment{Off: 0, Len: 6}) {
		t.Fatalf("natural = %v", segs)
	}
	// Transposed 2x3 into column-major memory: imap = [1, 2].
	segs, err = MemSegments([]int64{2, 3}, []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []mpitype.Segment{{Off: 0, Len: 1}, {Off: 2, Len: 1}, {Off: 4, Len: 1}, {Off: 1, Len: 1}, {Off: 3, Len: 1}, {Off: 5, Len: 1}}
	if len(segs) != len(want) {
		t.Fatalf("transposed = %v, want %v", segs, want)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("transposed = %v, want %v", segs, want)
		}
	}
	// Row-major with padding between rows: imap = [4, 1] for 2x3.
	segs, err = MemSegments([]int64{2, 3}, []int64{4, 1})
	if err != nil {
		t.Fatal(err)
	}
	want = []mpitype.Segment{{Off: 0, Len: 3}, {Off: 4, Len: 3}}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("padded = %v, want %v", segs, want)
		}
	}
	// Errors.
	if _, err := MemSegments([]int64{2}, []int64{0}); err == nil {
		t.Fatal("zero imap accepted")
	}
	if _, err := MemSegments([]int64{2}, []int64{1, 1}); err == nil {
		t.Fatal("imap rank mismatch accepted")
	}
	// Zero count.
	segs, err = MemSegments([]int64{0, 3}, []int64{3, 1})
	if err != nil || segs != nil {
		t.Fatalf("zero count: %v %v", segs, err)
	}
}

// naiveSegments is the reference for relSegments' dimension folding: every
// selected element visited one at a time in buffer order, adjacent ones
// merged. No dimension is treated specially.
func naiveSegments(h *cdf.Header, v *cdf.Var, req Request) []mpitype.Segment {
	elem := int64(v.Type.Size())
	var segs []mpitype.Segment
	for _, off := range oracleOffsets(h, v, req) {
		segs = appendMerge(segs, mpitype.Segment{Off: off, Len: elem})
	}
	return segs
}

// TestCoalescedSegmentsMatchNaiveWalk: over random shapes, starts, counts and
// strides — biased towards whole trailing dimensions, the case relSegments
// folds — fixed and record variables produce exactly the segment list of the
// element-by-element walk.
func TestCoalescedSegmentsMatchNaiveWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	folded := 0
	for iter := 0; iter < 2000; iter++ {
		nd := 1 + rng.Intn(4)
		rec := rng.Intn(2) == 0
		h := &cdf.Header{Version: 1}
		v := cdf.Var{Name: "v", Type: nctype.Double}
		for i := 0; i < nd; i++ {
			n := int64(1 + rng.Intn(5))
			if rec && i == 0 {
				n = 0 // the record dimension
			}
			h.Dims = append(h.Dims, cdf.Dim{Name: string(rune('a' + i)), Len: n})
			v.DimIDs = append(v.DimIDs, i)
		}
		// A second record variable interleaves the records.
		h.Vars = []cdf.Var{v, {Name: "w", Type: nctype.Int, DimIDs: []int{0}}}
		if !rec {
			h.Vars = h.Vars[:1]
		}
		if err := h.ComputeLayout(1); err != nil {
			t.Fatal(err)
		}
		h.NumRecs = int64(1 + rng.Intn(5))
		start := make([]int64, nd)
		count := make([]int64, nd)
		stride := make([]int64, nd)
		whole := rng.Intn(nd + 1) // this many trailing dimensions selected whole
		for i := 0; i < nd; i++ {
			bound := h.Dims[i].Len
			if rec && i == 0 {
				bound = h.NumRecs
			}
			if i >= nd-whole {
				start[i], count[i], stride[i] = 0, bound, 1
				continue
			}
			start[i] = rng.Int63n(bound)
			stride[i] = 1 + rng.Int63n(3)
			count[i] = rng.Int63n((bound-start[i]-1)/stride[i]+1) + 1
			if rng.Intn(16) == 0 {
				count[i] = 0
			}
		}
		if whole > 0 {
			folded++
		}
		req, err := Validate(h, &h.Vars[0], start, count, stride, false)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		got := FileSegments(h, &h.Vars[0], req)
		want := naiveSegments(h, &h.Vars[0], req)
		if len(got) != len(want) {
			t.Fatalf("iter %d (rec=%v shape=%v start=%v count=%v stride=%v): %d segments %v, want %d %v",
				iter, rec, h.Dims, start, count, stride, len(got), got, len(want), want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("iter %d (rec=%v shape=%v start=%v count=%v stride=%v): segment %d = %+v, want %+v",
					iter, rec, h.Dims, start, count, stride, i, got[i], want[i])
			}
		}
	}
	if folded < 500 {
		t.Fatalf("only %d of 2000 cases had a whole trailing dimension; the fold is under-tested", folded)
	}
}

// TestFileViewBuildsExtentsOnce: a many-row request — the Figure 6 X
// partition's shape, 16 384 rows of 128 bytes — is flattened into one exactly
// sized list that FromSegments adopts and a whole-request access reads in
// place: a handful of allocations and one list's worth of bytes, where
// growing, copying and re-deriving the list used to take dozens and five
// lists' worth.
func TestFileViewBuildsExtentsOnce(t *testing.T) {
	h := &cdf.Header{Version: 1}
	h.Dims = []cdf.Dim{{Name: "z", Len: 128}, {Name: "y", Len: 128}, {Name: "x", Len: 256}}
	h.Vars = []cdf.Var{{Name: "tt", DimIDs: []int{0, 1, 2}, Type: nctype.Float}}
	if err := h.ComputeLayout(1); err != nil {
		t.Fatal(err)
	}
	v := &h.Vars[0]
	req, err := Validate(h, v, []int64{0, 0, 32}, []int64{128, 128, 32}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	segs := FileSegments(h, v, req)
	if len(segs) != 128*128 || cap(segs) != len(segs) {
		t.Fatalf("FileSegments: %d segments in capacity %d, want 16384 sized exactly", len(segs), cap(segs))
	}
	view, err := FileView(h, v, req)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := view.SegmentsForRange(0, 0, view.Size())
	if err != nil {
		t.Fatal(err)
	}
	if &whole[0] != &view.Runs()[0] {
		t.Fatal("the whole-request access through the view re-derived the extent list")
	}
	allocs := testing.AllocsPerRun(20, func() {
		view, err := FileView(h, v, req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := view.SegmentsForRange(0, 0, view.Size()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Errorf("FileView + whole-view flatten: %v allocations, want <= 6 (shape, strides, index, the list)", allocs)
	}
}

// TestStridedSegmentsCapacityIsABound: a strided innermost dimension emits
// one run per element, except where a row's last element abuts the next
// row's first; the presized list then has spare capacity, never too little.
func TestStridedSegmentsCapacityIsABound(t *testing.T) {
	// Rows of 3 elements, elements 0 and 2 selected: element 2 of a row and
	// element 0 of the next are adjacent bytes.
	segs := relSegments([]int64{4, 3}, []int64{0, 0}, []int64{4, 2}, []int64{1, 2}, 4)
	want := []mpitype.Segment{{Off: 0, Len: 4}, {Off: 8, Len: 8}, {Off: 20, Len: 8}, {Off: 32, Len: 8}, {Off: 44, Len: 4}}
	if len(segs) != len(want) || cap(segs) != 8 {
		t.Fatalf("relSegments = %v (cap %d), want %v in capacity 8", segs, cap(segs), want)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("relSegments = %v, want %v", segs, want)
		}
	}
}
