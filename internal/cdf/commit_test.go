package cdf

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// memFile is an in-memory CommitFile that logs what CommitHeader did to it
// and can be told to die inside its n-th write, keeping a prefix of it, or
// in the SetSize that follows its n-th write, keeping its size.
type memFile struct {
	data    []byte
	log     []string
	dieAt   int  // 1-based write to fail; 0 never
	keep    int  // bytes of the failing write that land
	dieSize bool // fail the SetSize after write dieAt instead
	writes  int
	// appendAt makes that write (1-based) coincide with somebody else
	// appending a byte to the file.
	appendAt int
}

var errDied = errors.New("died")

func (m *memFile) Size() (int64, error) { return int64(len(m.data)), nil }

func (m *memFile) SetSize(size int64) error {
	m.log = append(m.log, fmt.Sprintf("size %d", size))
	if m.dieSize && m.writes == m.dieAt {
		return errDied
	}
	m.data = append(m.data[:min(size, int64(len(m.data)))], make([]byte, max(0, size-int64(len(m.data))))...)
	return nil
}

func (m *memFile) WriteAt(p []byte, off int64) error {
	m.writes++
	m.log = append(m.log, fmt.Sprintf("write %d@%d", len(p), off))
	died := m.writes == m.dieAt && !m.dieSize
	if died {
		p = p[:m.keep]
	}
	if end := off + int64(len(p)); end > int64(len(m.data)) {
		m.data = append(m.data, make([]byte, end-int64(len(m.data)))...)
	}
	copy(m.data[off:], p)
	if died {
		return errDied
	}
	if m.writes == m.appendAt {
		m.data = append(m.data, 0xee)
	}
	return nil
}

// TestCommitHeaderShapes pins the two commits step by step: a file holding
// nothing is extended, then gets the whole image with its magic zeroed (from
// byte 0, so the request starts on a block) and the magic; a file holding
// bytes gets the
// journaled five steps, parked past whatever is larger — the file or what the
// header declares — and ends where the journal began. Only a file that grew
// behind the journal keeps its length, the journal zeroed in place.
func TestCommitHeaderShapes(t *testing.T) {
	img := fuzzSeedHeader(2)
	n := len(img)
	j := n + JournalTrailerSize
	for _, tc := range []struct {
		name        string
		old         []byte
		declaredEnd int64
		log         []string
		written     int
		size        int
		appendAt    int
	}{
		{"first", nil, 4096,
			[]string{"size 4096", fmt.Sprintf("write %d@0", n), "write 4@0"}, n + 4, 4096, 0},
		{"first, nothing declared past the header", nil, 0,
			[]string{fmt.Sprintf("size %d", n), fmt.Sprintf("write %d@0", n), "write 4@0"}, n + 4, n, 0},
		{"recommit, journal past the file", make([]byte, 9000), 4096,
			[]string{fmt.Sprintf("write %d@9000", j), "write 4@0", fmt.Sprintf("write %d@4", n-4), "write 4@0", "size 9000"},
			j + n + 4, 9000, 0},
		{"recommit, journal past the declared end", make([]byte, 100), 4096,
			[]string{fmt.Sprintf("write %d@4096", j), "write 4@0", fmt.Sprintf("write %d@4", n-4), "write 4@0", "size 4096"},
			j + n + 4, 4096, 0},
		{"recommit, the file grew behind the journal", make([]byte, 9000), 4096,
			[]string{fmt.Sprintf("write %d@9000", j), "write 4@0", fmt.Sprintf("write %d@4", n-4), "write 4@0", fmt.Sprintf("write %d@9000", j)},
			2*j + n + 4, 9000 + j + 1, 3},
	} {
		f := &memFile{data: tc.old, appendAt: tc.appendAt}
		want := bytes.Clone(img)
		written, err := CommitHeader(f, img, tc.declaredEnd)
		if err != nil || written != int64(tc.written) {
			t.Fatalf("%s: wrote %d bytes, err %v; want %d", tc.name, written, err, tc.written)
		}
		if !bytes.Equal(img, want) {
			t.Fatalf("%s: the caller's image changed", tc.name)
		}
		if fmt.Sprint(f.log) != fmt.Sprint(tc.log) {
			t.Fatalf("%s: steps %v, want %v", tc.name, f.log, tc.log)
		}
		if len(f.data) != tc.size || !bytes.Equal(f.data[:n], img) || RecoverJournal(f.data) != nil {
			t.Fatalf("%s: file is %d bytes (want %d), holds the header: %v, journal left behind: %v",
				tc.name, len(f.data), tc.size, bytes.Equal(f.data[:n], img), RecoverJournal(f.data) != nil)
		}
		tail := make([]byte, tc.size-n)
		if tc.appendAt > 0 {
			tail[len(tail)-1] = 0xee
		}
		if !bytes.Equal(f.data[n:], tail) {
			t.Fatalf("%s: bytes past the header are not all zero, or not all but the one appended", tc.name)
		}
	}
}

// TestCommitHeaderCrashAtEveryStep kills every write of both commits before
// its first byte, half way and before its last, and the recommit once more at
// the size change that ends it. A first commit leaves a file of the declared
// size with no magic and no journal, which nothing opens; a recommit leaves
// the old header or the new, in place or in the journal — after the last
// write, the new one in place with the whole journal still behind the data.
// written counts the completed steps.
func TestCommitHeaderCrashAtEveryStep(t *testing.T) {
	img, old := fuzzSeedHeader(2), fuzzSeedHeader(1)
	n, j := len(img), len(img)+JournalTrailerSize
	const declaredEnd = 4096
	// The recommit's fifth step is the size change, which dies whole.
	for _, steps := range [][]int{{n, 4}, {j, 4, n - 4, 4, 0}} {
		first := len(steps) == 2
		done := 0
		for die, size := range steps {
			for _, keep := range []int{0, size / 2, max(size-1, 0)}[:min(size, 2)+1] {
				f := &memFile{dieAt: die + 1, keep: keep}
				if !first {
					f.data = append(append([]byte(nil), old...), make([]byte, 5000)...)
				}
				if die == 4 {
					f.dieAt, f.dieSize = 4, true
				}
				what := fmt.Sprintf("first=%v, died in step %d after %d of %d bytes", first, die+1, keep, size)
				written, err := CommitHeader(f, img, declaredEnd)
				if !errors.Is(err, errDied) || written != int64(done) {
					t.Fatalf("%s: wrote %d, err %v; want %d and the write's error", what, written, err, done)
				}
				if img[0] != 'C' {
					t.Fatalf("%s: the caller's image lost its magic", what)
				}
				h, _, recovered, err := ReadHeader(int64(len(f.data)), func(buf []byte, off int64) error {
					copy(buf, f.data[off:])
					return nil
				})
				if first {
					// The magic goes last: no crash leaves a header.
					if err == nil || len(f.data) != declaredEnd || RecoverJournal(f.data) != nil {
						t.Fatalf("%s: a %d-byte file that opens (err %v) or holds a journal", what, len(f.data), err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: neither header is readable: %v", what, err)
				}
				// Old until the first byte of the magic is gone, then new:
				// from the journal until the magic is back, in place after.
				wantNew := die > 1 || die == 1 && keep > 0
				if got := h.Version == 2; got != wantNew || recovered != (wantNew && die < 4) {
					t.Fatalf("%s: read the new header: %v (want %v), from the journal: %v", what, got, wantNew, recovered)
				}
				if die == 4 && RecoverJournal(f.data) == nil {
					t.Fatalf("%s: the journal is gone although the file was never cut", what)
				}
			}
			done += size
		}
	}
}
