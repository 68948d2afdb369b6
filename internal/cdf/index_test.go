package cdf

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"pnetcdf/internal/metashape"
	"pnetcdf/internal/nctype"
)

// scanVar and scanDim are the oracle: the plain scans the index replaces.
func scanVar(h *Header, name string) int {
	for i := range h.Vars {
		if h.Vars[i].Name == name {
			return i
		}
	}
	return -1
}

func scanDim(h *Header, name string) int {
	for i := range h.Dims {
		if h.Dims[i].Name == name {
			return i
		}
	}
	return -1
}

// checkFinds holds every lookup of h — each name it carries, and the given
// names it may or may not — against the scans.
func checkFinds(t *testing.T, what string, h *Header, others ...string) {
	t.Helper()
	names := append([]string{"", "absent"}, others...)
	for i := range h.Vars {
		names = append(names, h.Vars[i].Name)
	}
	for i := range h.Dims {
		names = append(names, h.Dims[i].Name)
	}
	for _, name := range names {
		if got, want := h.FindVar(name), scanVar(h, name); got != want {
			t.Fatalf("%s: FindVar(%q) = %d, scan says %d", what, name, got, want)
		}
		if got, want := h.FindDim(name), scanDim(h, name); got != want {
			t.Fatalf("%s: FindDim(%q) = %d, scan says %d", what, name, got, want)
		}
	}
}

// literalHeader builds a header of ndims dimensions and nvars variables the
// way tests and tools do: as slice literals, behind the index's back.
func literalHeader(ndims, nvars int) *Header {
	h := &Header{Version: 2}
	for i := 0; i < ndims; i++ {
		h.Dims = append(h.Dims, Dim{Name: fmt.Sprintf("dim_%d", i), Len: int64(i + 1)})
	}
	for i := 0; i < nvars; i++ {
		v := Var{Name: fmt.Sprintf("var_%d", i), Type: nctype.Int, DimIDs: []int{}}
		if ndims > 0 {
			v.DimIDs = []int{i % ndims}
		}
		h.Vars = append(h.Vars, v)
	}
	return h
}

// TestFindAgreesWithScan: however a header came to be — literal, methods,
// a mix, Clone, Decode — and on either side of the scan/hash switch, lookups
// answer what a scan answers.
func TestFindAgreesWithScan(t *testing.T) {
	for _, n := range []int{0, 1, indexMinLen, indexMinLen + 1, 2*indexMinLen + 5, 1000} {
		lit := literalHeader(min(n, nctype.MaxDims), n)
		checkFinds(t, fmt.Sprintf("literal n=%d", n), lit)

		built := &Header{Version: 2}
		for _, d := range lit.Dims {
			built.addDim(d)
		}
		for _, v := range lit.Vars {
			if id := built.addVar(v); built.Vars[id].Name != v.Name {
				t.Fatalf("addVar returned id %d for %q", id, v.Name)
			}
		}
		checkFinds(t, fmt.Sprintf("built n=%d", n), built)

		// A literal extended through the methods, then appended to directly
		// again: the index covers a prefix, a middle, and not the tail.
		mixed := literalHeader(min(n, nctype.MaxDims), n)
		for i := 0; i < indexMinLen+3; i++ {
			mixed.addVar(Var{Name: fmt.Sprintf("added_%d", i), Type: nctype.Int, DimIDs: []int{}})
		}
		mixed.Vars = append(mixed.Vars, Var{Name: "tail", Type: nctype.Int, DimIDs: []int{}})
		mixed.Dims = append(mixed.Dims, Dim{Name: "tail", Len: 1})
		checkFinds(t, fmt.Sprintf("mixed n=%d", n), mixed)

		// Renames: hits under the new names, misses under the old.
		if n > 2 {
			built.renameVar(1, "renamed_var", true)
			built.renameDim(1, "renamed_dim", true)
			built.renameVar(2, "var_1", true) // reuse a name just given up
			checkFinds(t, fmt.Sprintf("renamed n=%d", n), built, "var_1", "var_2", "dim_1")
		}

		clone := built.clone()
		checkFinds(t, fmt.Sprintf("clone n=%d", n), clone)
		clone.addVar(Var{Name: "only_in_clone", Type: nctype.Int, DimIDs: []int{}})
		if n > 0 {
			clone.renameVar(0, "clone_renamed", true)
		}
		checkFinds(t, fmt.Sprintf("clone after change n=%d", n), clone, "var_0")
		checkFinds(t, fmt.Sprintf("original after clone changed n=%d", n), built, "only_in_clone", "clone_renamed")

		if err := built.ComputeLayout(1); err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(built.Encode())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		checkFinds(t, fmt.Sprintf("decoded n=%d", n), dec)
	}
}

// TestValidateUniquenessWithAndWithoutIndex: a duplicate name is found in a
// large header whether the index covers the list, covers nothing, or was
// made stale by a direct assignment.
func TestValidateUniquenessWithAndWithoutIndex(t *testing.T) {
	const n = 4 * indexMinLen
	dup := func(h *Header) error {
		err := h.Validate()
		if !errors.Is(err, nctype.ErrNameInUse) {
			return fmt.Errorf("Validate = %v, want ErrNameInUse", err)
		}
		return nil
	}
	lit := literalHeader(4, n)
	if err := lit.Validate(); err != nil {
		t.Fatalf("literal: %v", err)
	}
	lit.Vars[n-1].Name = "var_7"
	if err := dup(lit); err != nil {
		t.Fatalf("literal with duplicate variable: %v", err)
	}

	built := &Header{Version: 2}
	for _, d := range literalHeader(n, 0).Dims {
		built.addDim(d)
	}
	for _, v := range literalHeader(4, n).Vars {
		built.addVar(v)
	}
	if err := built.Validate(); err != nil {
		t.Fatalf("built: %v", err)
	}
	built.Vars[3].Name = "var_90" // behind the index's back
	if err := dup(built); err != nil {
		t.Fatalf("stale index, duplicate variable: %v", err)
	}
	built.Vars[3].Name = "var_3"
	built.Dims[n-1].Name = "dim_0"
	if err := dup(built); err != nil {
		t.Fatalf("stale index, duplicate dimension: %v", err)
	}
	built.Dims[n-1].Name = "unique_again"
	if err := built.Validate(); err != nil {
		t.Fatalf("stale index, no duplicate: %v", err)
	}

	// Attribute lists are checked where they are made: Decode finds a
	// repeated name in a long list, which takes the hashed path, and in a
	// short one, which takes the scan.
	for _, k := range []int{3, 3 * indexMinLen} {
		h := literalHeader(1, 1)
		attrs := make([]Attr, k)
		for i := range attrs {
			attrs[i] = mkAttr(fmt.Sprintf("a%d", i), nctype.Byte, []byte{1})
		}
		h.Vars[0].Attrs = listOf(h.Version, attrs...)
		if _, err := Decode(h.Encode()); err != nil {
			t.Fatalf("%d attributes: %v", k, err)
		}
		attrs[k-1].Name = "a1"
		h.Vars[0].Attrs = listOf(h.Version, attrs...)
		if _, err := Decode(h.Encode()); !errors.Is(err, nctype.ErrNameInUse) {
			t.Fatalf("%d attributes with a duplicate: Decode = %v, want ErrNameInUse", k, err)
		}
	}
}

// TestFindVarConcurrentReaders: lookups only read the header, so readers of
// one header need no lock — including one whose index covers only a prefix.
// The race detector is the judge.
func TestFindVarConcurrentReaders(t *testing.T) {
	h := &Header{Version: 2}
	for _, v := range literalHeader(0, 500).Vars {
		h.addVar(v)
	}
	h.Vars = append(h.Vars, Var{Name: "tail", Type: nctype.Int, DimIDs: []int{}})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for k := 0; k < 2000; k++ {
				i := rng.Intn(len(h.Vars))
				if got := h.FindVar(h.Vars[i].Name); got != i {
					t.Errorf("FindVar(%q) = %d, want %d", h.Vars[i].Name, got, i)
					return
				}
				if h.FindVar("absent") != -1 || h.Validate() != nil {
					t.Error("miss or Validate went wrong under concurrent readers")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// countingFile serves reads from an image that is mostly not there: size
// bytes long, of which only the given prefix and tail hold anything. reach is
// how far into the file the reads got, the journal's at the tail aside.
type countingFile struct {
	size                int64
	head, tail          []byte
	calls, bytes, reach int64
}

func (f *countingFile) read(buf []byte, off int64) error {
	f.calls++
	f.bytes += int64(len(buf))
	if off < f.size-int64(len(f.tail)) {
		f.reach = max(f.reach, off+int64(len(buf)))
	}
	clear(buf)
	for i := range buf {
		switch at := off + int64(i); {
		case at < int64(len(f.head)):
			buf[i] = f.head[at]
		case at >= f.size-int64(len(f.tail)):
			buf[i] = f.tail[at-(f.size-int64(len(f.tail)))]
		}
	}
	return nil
}

// restartingProbe is what the probe that restarted from byte 0 and knew no
// bound read to find a header of hdrLen bytes in a file of size bytes: every
// step of 64 KiB × 4ⁿ up to the first that holds the header.
func restartingProbe(hdrLen, size int64) (calls, bytes int64) {
	for step := int64(64 << 10); ; step *= 4 {
		calls++
		bytes += min(step, size)
		if step >= hdrLen || step >= size {
			return calls, bytes
		}
	}
}

// probeCase is one header ReadHeader must find, and what finding it may cost
// beyond never costing more bytes than restartingProbe.
type probeCase struct {
	name       string
	img        []byte
	size       int64
	reach      int64 // the file prefix it ends up holding
	extraCalls int64 // calls it may make beyond restartingProbe's
	calls      int64 // when set, exactly this many calls
	predicted  bool  // the prediction may carry it past restartingProbe's bytes, to at most four times them
}

// tightImage is the image of the header define makes, laid out tightly.
func tightImage(t testing.TB, define func(d metashape.Definer) error) []byte {
	f := CreateFront(nctype.Bit64Offset, nil)
	if err := define(&f); err != nil {
		t.Fatal(err)
	}
	h := f.Hdr
	if err := h.ComputeLayout(1); err != nil {
		t.Fatal(err)
	}
	return h.Encode()
}

// probeCases are the open-time probe's contract. big is a header of about
// 130 KiB — the first step truncates it, the second holds it — laid out
// tightly, under a 1 MiB nc_header_align_size, and with begins that are
// useless (past the file, inside the bytes already held) or wrong (inside the
// header, beyond them). The rest are about the prediction: the metadata
// benchmark's header of 4096 variables, which the first step's variables
// predict; one whose first variables are fat, so that they predict far more
// header than there is; one whose first two steps end inside a global
// attribute, where no variable predicts anything; one whose fat first
// variables are followed by thin ones and then by a long attribute, so that
// a later prediction falls short of the bytes already held; and one whose
// first variables are fat record variables, whose begins lie past all the
// fixed data and so bound nothing.
func probeCases(t testing.TB) []probeCase {
	// laidOut is big reshaped before its layout is computed, and rebased
	// after.
	laidOut := func(hAlign int64, reshape, rebase func(h *Header)) []byte {
		h := literalHeader(4, 3000)
		if reshape != nil {
			reshape(h)
		}
		if err := h.ComputeLayout(hAlign); err != nil {
			t.Fatal(err)
		}
		if rebase != nil {
			rebase(h)
		}
		return h.Encode()
	}
	big := func(hAlign int64, rebase func(h *Header)) []byte { return laidOut(hAlign, nil, rebase) }
	const size = 64 << 20
	tight := big(1, nil)
	hdrLen := int64(len(tight))
	pastTheFile := func(h *Header) {
		for i := range h.Vars {
			h.Vars[i].Begin += size
		}
	}
	meta := tightImage(t, metashape.New(4096, 1).Define)
	fatFirst := func(h *Header) {
		for i := range h.Vars[:200] {
			h.Vars[i].Attrs = listOf(h.Version, mkAttr("long_name", nctype.Char, make([]byte, 400)))
		}
	}
	longGAttr := func(h *Header) {
		h.GAttrs = listOf(h.Version, mkAttr("history", nctype.Char, make([]byte, 300<<10)))
	}
	fatThinLong := tightImage(t, func(d metashape.Definer) error {
		n, err := d.DefDim("n", 16)
		if err != nil {
			return err
		}
		for i := 0; i < 30; i++ {
			v, err := d.DefVar(fmt.Sprintf("v%02d", i), nctype.Float, []int{n})
			if err != nil {
				return err
			}
			long := map[int]int{0: 60_000, 1: 70_000, 11: 2 << 20}[i]
			if err := d.PutAttr(v, "long_name", nctype.Char, strings.Repeat("x", max(long, 100))); err != nil {
				return err
			}
		}
		return nil
	})
	recordFirst := tightImage(t, func(d metashape.Definer) error {
		rec, err := d.DefDim("time", 0)
		if err != nil {
			return err
		}
		n, err := d.DefDim("n", 1024)
		if err != nil {
			return err
		}
		for i := 0; i < 20; i++ {
			v, err := d.DefVar(fmt.Sprintf("r%02d", i), nctype.Double, []int{rec})
			if err != nil {
				return err
			}
			if err := d.PutAttr(v, "long_name", nctype.Char, strings.Repeat("x", 4000)); err != nil {
				return err
			}
		}
		for i := 0; i < 8000; i++ {
			if _, err := d.DefVar(fmt.Sprintf("v%05d", i), nctype.Float, []int{n}); err != nil {
				return err
			}
		}
		return nil
	})
	return []probeCase{
		{name: "inside the first step", img: fuzzSeedHeader(2), size: size, reach: 64 << 10},
		{name: "second step, trimmed to the first begin", img: tight, size: size, reach: hdrLen},
		{name: "header padded to 1 MiB", img: big(1<<20, nil), size: size, reach: 256 << 10},
		{name: "every begin past the file", img: big(1, pastTheFile), size: size, reach: 256 << 10},
		{name: "a begin inside the bytes held", img: big(1, func(h *Header) { h.Vars[0].Begin = 100 }), size: size, reach: 256 << 10},
		{name: "a begin inside the header", img: big(1, func(h *Header) { h.Vars[0].Begin = 70_000 }), size: size, reach: 256 << 10, extraCalls: 1},
		{name: "file ends inside the second step", img: tight, size: hdrLen + 10, reach: hdrLen},
		{name: "4096 variables: predicted, trimmed to the first begin", img: meta, size: size, reach: int64(len(meta)), calls: 2},
		{name: "a prediction past a loose bound stops at it", img: laidOut(512<<10, fatFirst, nil), size: size, reach: 512 << 10, predicted: true},
		{name: "no variable in two steps: the 4ⁿ steps", img: laidOut(1, longGAttr, nil), size: size, reach: 1 << 20, calls: 3},
		{name: "a prediction short of the bytes held: the next step", img: fatThinLong, size: size, reach: int64(len(fatThinLong)), calls: 3},
		{name: "record variables first: the prediction held to the next step", img: recordFirst, size: size, reach: 1 << 20, calls: 2},
	}
}

// TestReadHeaderProbes: the probe grows only while the header is truncated.
// A corrupt header in a large file costs one probe and the journal trailer,
// not the whole file; a torn one is still recovered from the journal; a
// header larger than the first probe is still found.
func TestReadHeaderProbes(t *testing.T) {
	const size = 64 << 20
	img := fuzzSeedHeader(2)

	// A flipped list tag: more bytes cannot cure it.
	bad := append([]byte(nil), img...)
	bad[4+4+3] ^= 0x40 // dim_list tag
	f := &countingFile{size: size, head: bad}
	_, blob, recovered, err := ReadHeader(size, f.read)
	if !errors.Is(err, nctype.ErrNotNC) || errors.Is(err, errTruncated) || recovered {
		t.Fatalf("flipped tag: err = %v, recovered = %v", err, recovered)
	}
	if want := int64(64<<10 + journalTrailerSize); f.bytes > want {
		t.Fatalf("flipped tag: read %d bytes in %d calls, want at most %d", f.bytes, f.calls, want)
	}
	if len(blob) != 64<<10 {
		t.Fatalf("flipped tag: blob is %d bytes, want the first probe", len(blob))
	}

	// A torn header (zeroed magic) with the new image journaled at the tail.
	torn := append([]byte(nil), img...)
	copy(torn, []byte{0, 0, 0, 0})
	f = &countingFile{size: size, head: torn, tail: encodeJournal(img)}
	h, blob, recovered, err := ReadHeader(size, f.read)
	if err != nil || !recovered || h.FindVar("temp") < 0 || string(blob) != string(img) {
		t.Fatalf("torn header: err = %v, recovered = %v", err, recovered)
	}
	if want := int64(64<<10 + journalTrailerSize + len(img)); f.bytes > want {
		t.Fatalf("torn header: read %d bytes, want at most %d", f.bytes, want)
	}

	// Torn, and the journal's image does not verify: the decode error stands.
	j := encodeJournal(img)
	j[0] ^= 1
	f = &countingFile{size: size, head: torn, tail: j}
	if _, _, recovered, err = ReadHeader(size, f.read); !errors.Is(err, nctype.ErrNotNC) || recovered {
		t.Fatalf("torn header, bad journal: err = %v, recovered = %v", err, recovered)
	}

	// Headers found: no byte is read twice, no read goes past what a probe
	// with neither prediction nor bound would have held unless a prediction
	// carried it (and then not past four times that), no more reads are made than
	// that probe's, and the image handed back is the header's own bytes, not
	// the probe.
	for _, tc := range probeCases(t) {
		f := &countingFile{size: tc.size, head: tc.img}
		h, blob, recovered, err := ReadHeader(tc.size, f.read)
		if err != nil || recovered || string(blob) != string(tc.img) {
			t.Fatalf("%s: err = %v, recovered = %v, blob is %d of the header's %d bytes", tc.name, err, recovered, len(blob), len(tc.img))
		}
		if want, _ := Decode(tc.img); !sameHeader(h, want) {
			t.Fatalf("%s: decoded a different header", tc.name)
		}
		// A header the first probe holds comes back in a buffer of its own
		// size and the status byte's room, and h's lists are the image's
		// bytes: its first and last are checked.
		if f.calls == 1 && cap(blob) != len(blob)+1 {
			t.Fatalf("%s: a header of %d bytes comes back in a buffer of %d", tc.name, len(blob), cap(blob))
		}
		first, last := h.GAttrs.xdr, h.GAttrs.xdr
		for i := range h.Vars {
			if l := h.Vars[i].Attrs.xdr; len(l) > 0 {
				if len(first) == 0 {
					first = l
				}
				last = l
			}
		}
		for _, l := range [][]byte{first, last} {
			in := len(l) == 0
			for i := 0; i < len(blob) && !in; i++ {
				in = &blob[i] == &l[0]
			}
			if !in {
				t.Fatalf("%s: a list of the header is not in the image handed back", tc.name)
			}
		}
		calls, bytes := restartingProbe(int64(len(tc.img)), tc.size)
		if tc.predicted {
			bytes *= 4
		}
		if f.bytes != f.reach || f.reach != tc.reach || f.bytes > bytes || f.calls > calls+tc.extraCalls || tc.calls != 0 && f.calls != tc.calls {
			t.Fatalf("%s: %d reads of %d bytes reaching byte %d, want byte %d reached once; the restarting probe made %d reads of %d bytes",
				tc.name, f.calls, f.bytes, f.reach, tc.reach, calls, bytes)
		}
	}
	big := literalHeader(4, 3000)
	if err := big.ComputeLayout(1); err != nil {
		t.Fatal(err)
	}

	// The same header cut short by the end of the file: truncated for good.
	cut := big.Encode()[:80<<10]
	f = &countingFile{size: int64(len(cut)), head: cut}
	if _, _, _, err = ReadHeader(f.size, f.read); !errors.Is(err, errTruncated) {
		t.Fatalf("file shorter than its header: err = %v, want errTruncated", err)
	}

	// A failing read is reported as such, with no image.
	boom := errors.New("boom")
	_, blob, _, err = ReadHeader(size, func([]byte, int64) error { return boom })
	if !errors.Is(err, boom) || blob != nil {
		t.Fatalf("failing read: err = %v, blob = %d bytes", err, len(blob))
	}
}

func TestEncodeNumRecs(t *testing.T) {
	for _, version := range []int{1, 2, 5} {
		h := simpleHeader(t, version)
		h.NumRecs = 0x01020304
		full := h.Encode()
		field := h.EncodeNumRecs()
		n := int(nonNegSize(version))
		if len(field) != n || string(field) != string(full[NumRecsOffset:NumRecsOffset+n]) {
			t.Fatalf("v%d: EncodeNumRecs = %v, header holds %v", version, field, full[NumRecsOffset:NumRecsOffset+n])
		}
	}
}
