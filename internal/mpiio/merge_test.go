package mpiio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pnetcdf/internal/pfs"
)

// The reference the merge is checked against is what the aggregator used to
// do: decode every message into one list, sort it, walk it. It lives here
// only. The sort is stable over (source rank, position in the message), which
// is the tie order the merge promises.

type refEntry struct {
	off, len int64
	src, idx int
	data     []byte // write only
}

// refDecode lists the entries of msgs in (source, index) order; it assumes
// well-formed messages.
func refDecode(msgs [][]byte, payload bool) []refEntry {
	var out []refEntry
	for src, msg := range msgs {
		if msg == nil {
			continue
		}
		n := int(binary.BigEndian.Uint64(msg))
		pos := 8 + 16*n
		for i := 0; i < n; i++ {
			e := refEntry{
				off: int64(binary.BigEndian.Uint64(msg[8+16*i:])),
				len: int64(binary.BigEndian.Uint64(msg[16+16*i:])),
				src: src, idx: i,
			}
			if payload {
				e.data = msg[pos : pos+int(e.len)]
				pos += int(e.len)
			}
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].off < out[j].off })
	return out
}

func refAssembleWrite(msgs [][]byte) ([]pfs.Segment, [][]byte) {
	var segs []pfs.Segment
	var iov [][]byte
	for _, e := range refDecode(msgs, true) {
		if n := len(segs); n > 0 && segs[n-1].Off+segs[n-1].Len == e.off {
			segs[n-1].Len += e.len
		} else {
			segs = append(segs, pfs.Segment{Off: e.off, Len: e.len})
		}
		iov = append(iov, e.data)
	}
	return segs, iov
}

// refCoverage returns the merged coverage segments and, per source, the
// position of each request in the coverage buffer, found the old way: a
// binary search over the merged segments per request.
func refCoverage(msgs [][]byte) ([]pfs.Segment, map[int][]covReq) {
	all := refDecode(msgs, false)
	var segs []pfs.Segment
	for _, e := range all {
		if n := len(segs); n > 0 && e.off <= segs[n-1].Off+segs[n-1].Len {
			segs[n-1].Len = max(segs[n-1].Off+segs[n-1].Len, e.off+e.len) - segs[n-1].Off
		} else {
			segs = append(segs, pfs.Segment{Off: e.off, Len: e.len})
		}
	}
	starts := make([]int64, len(segs))
	var total int64
	for i, s := range segs {
		starts[i] = total
		total += s.Len
	}
	pos := map[int][]covReq{}
	for src, msg := range msgs {
		if msg != nil {
			pos[src] = make([]covReq, binary.BigEndian.Uint64(msg))
		}
	}
	for _, e := range all {
		i := sort.Search(len(segs), func(i int) bool { return segs[i].Off+segs[i].Len > e.off })
		if e.off < segs[i].Off || e.off+e.len > segs[i].Off+segs[i].Len {
			panic("reference: request outside the coverage")
		}
		pos[e.src][e.idx] = covReq{pos: starts[i] + e.off - segs[i].Off, len: e.len}
	}
	return segs, pos
}

// buildMsg encodes one source's entries, with rng-filled payload for a write.
func buildMsg(rng *rand.Rand, ents []pfs.Segment, payload bool) []byte {
	reqs := make([]reqSeg, len(ents))
	var total int64
	for i, e := range ents {
		reqs[i] = reqSeg{off: e.Off, len: e.Len, bufPos: total}
		total += e.Len
	}
	if !payload {
		return append([]byte(nil), encodeReadMsg(reqs)...)
	}
	buf := make([]byte, total)
	rng.Read(buf)
	return append([]byte(nil), encodeWriteMsg(reqs, Bytes(buf))...)
}

// randomSource draws n ascending entries: adjacent to, apart from, on top of
// and overlapping the previous one, so that lists of different sources
// interleave, tie and overlap each other too.
func randomSource(rng *rand.Rand, n int, span int64) []pfs.Segment {
	ents := make([]pfs.Segment, 0, n)
	off := rng.Int63n(span/4 + 1)
	maxLen := span / int64(n+1) / 2
	if maxLen < 1 {
		maxLen = 1
	}
	for i := 0; i < n; i++ {
		l := 1 + rng.Int63n(maxLen)
		ents = append(ents, pfs.Segment{Off: off, Len: l})
		switch rng.Intn(5) {
		case 0: // duplicate offset
		case 1: // overlap within the source
			off += rng.Int63n(l)
		case 2: // adjacent
			off += l
		default:
			off += l + rng.Int63n(maxLen)
		}
	}
	return ents
}

// randomRound builds one round's messages from k of 64 ranks and returns the
// end of the window they lie in.
func randomRound(rng *rand.Rand, payload bool) (msgs [][]byte, hi int64) {
	const ranks = 64
	msgs = make([][]byte, ranks)
	k := rng.Intn(ranks + 1)
	span := int64(1) << (10 + rng.Intn(12))
	for _, src := range rng.Perm(ranks)[:k] {
		var n int
		switch rng.Intn(40) {
		case 0, 1, 2, 3:
			n = 0 // a source that lists nothing
		case 4, 5, 6, 7:
			n = 1
		case 8:
			n = 10000
		default:
			n = 1 + rng.Intn(40)
		}
		ents := randomSource(rng, n, span)
		for _, e := range ents {
			hi = max(hi, e.Off+e.Len)
		}
		msgs[src] = buildMsg(rng, ents, payload)
	}
	return msgs, hi
}

// TestAssembleWriteMatchesSortReference: the merged write — segments and the
// in-place iovec — equals the sort-based reference exactly on random rounds,
// one writeVec reused throughout as a collective reuses its scratch.
func TestAssembleWriteMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var w writeVec
	for round := 0; round < 150; round++ {
		msgs, hi := randomRound(rng, true)
		if err := w.assemble(msgs, 0, hi); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		segs, iov := refAssembleWrite(msgs)
		if !slices.Equal(w.segs, segs) {
			t.Fatalf("round %d: %d merged segments, reference has %d (or they differ)", round, len(w.segs), len(segs))
		}
		if len(w.iov) != len(iov) {
			t.Fatalf("round %d: iovec of %d entries, reference has %d", round, len(w.iov), len(iov))
		}
		var total int64
		for i := range iov {
			if len(w.iov[i]) != len(iov[i]) || &w.iov[i][0] != &iov[i][0] {
				t.Fatalf("round %d: iovec entry %d is not the reference's payload bytes in place", round, i)
			}
			total += int64(len(iov[i]))
		}
		if w.bytes != total {
			t.Fatalf("round %d: bytes = %d, iovec holds %d", round, w.bytes, total)
		}
	}
}

// TestAssembleReadMatchesSortReference: coverage segments and every request's
// recorded position equal the reference's binary-searched ones, and the
// per-source records (rank, request count, reply size) are right.
func TestAssembleReadMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var cov coverage
	for round := 0; round < 150; round++ {
		msgs, hi := randomRound(rng, false)
		if err := cov.assemble(msgs, 0, hi); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		segs, pos := refCoverage(msgs)
		if !slices.Equal(cov.segs, segs) {
			t.Fatalf("round %d: %d coverage segments, reference has %d (or they differ)", round, len(cov.segs), len(segs))
		}
		if len(cov.merge.cur) != len(pos) || cov.empty() != (len(pos) == 0) {
			t.Fatalf("round %d: %d sources recorded, %d sent", round, len(cov.merge.cur), len(pos))
		}
		if !cov.empty() && int64(len(cov.data)) != segsLen(segs) {
			t.Fatalf("round %d: coverage buffer of %d bytes for %d bytes of segments", round, len(cov.data), segsLen(segs))
		}
		prev := -1
		for _, c := range cov.merge.cur {
			want, ok := pos[c.src]
			if !ok || c.src <= prev || c.n != len(want) {
				t.Fatalf("round %d: source record %+v does not match what rank %d sent", round, c, c.src)
			}
			prev = c.src
			var bytes int64
			for i, rq := range cov.reqs[c.first : c.first+c.n] {
				if rq != want[i] {
					t.Fatalf("round %d: request %d of rank %d at %+v, reference %+v", round, i, c.src, rq, want[i])
				}
				bytes += rq.len
			}
			if c.bytes != bytes {
				t.Fatalf("round %d: rank %d reply size %d, its requests total %d", round, c.src, c.bytes, bytes)
			}
		}
		cov.release()
	}
}

// TestMergeTieOrder pins the rule the overlap semantics rest on: equal
// offsets come out lowest source rank first, and a source's own duplicates in
// the order it listed them.
func TestMergeTieOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	msgs := make([][]byte, 6)
	msgs[5] = buildMsg(rng, []pfs.Segment{{Off: 100, Len: 8}, {Off: 100, Len: 4}}, true)
	msgs[1] = buildMsg(rng, []pfs.Segment{{Off: 100, Len: 8}}, true)
	msgs[3] = buildMsg(rng, []pfs.Segment{{Off: 96, Len: 4}, {Off: 100, Len: 8}}, true)
	var m roundMerge
	if _, err := m.start(msgs, 0, 1<<20, true); err != nil {
		t.Fatal(err)
	}
	var got []string
	for c := m.min(); c != nil; c = m.min() {
		got = append(got, fmt.Sprintf("%d@%d+%d", c.src, c.off, c.len))
		if err := m.advance(); err != nil {
			t.Fatal(err)
		}
	}
	want := "[3@96+4 1@100+8 3@100+8 5@100+8 5@100+4]"
	if fmt.Sprint(got) != want {
		t.Fatalf("merge order %v, want %s", got, want)
	}
}

// rawMsg encodes a message without the encoder's guarantees.
func rawMsg(count uint64, ents []int64, payload int) []byte {
	msg := binary.BigEndian.AppendUint64(nil, count)
	for _, v := range ents {
		msg = binary.BigEndian.AppendUint64(msg, uint64(v))
	}
	return append(msg, make([]byte, payload)...)
}

// malformed lists messages that break one rule each, for the window
// [4096, 8192). Those marked write are malformed only as write messages.
var malformed = []struct {
	name  string
	msg   []byte
	write bool
}{
	{"short header", []byte{0, 0, 1}, false},
	{"count past the bytes present", rawMsg(3, []int64{4096, 8, 4200, 8}, 0), false},
	{"huge count", rawMsg(1<<63, nil, 64), false},
	{"negative length", rawMsg(1, []int64{4096, -8}, 0), false},
	{"zero length", rawMsg(1, []int64{4096, 0}, 0), false},
	{"negative offset", rawMsg(1, []int64{-4096, 8}, 0), false},
	{"before the window", rawMsg(1, []int64{4000, 8}, 0), false},
	{"past the window", rawMsg(1, []int64{8190, 8}, 0), false},
	{"length overflows", rawMsg(1, []int64{4096, 1<<63 - 1}, 0), false},
	{"descending source", rawMsg(2, []int64{5000, 8, 4999, 8}, 0), false},
	{"trailing bytes", rawMsg(1, []int64{4096, 8}, 8+5), false},
	{"payload short of the entries", rawMsg(2, []int64{4096, 8, 5000, 8}, 12), true},
	{"no payload", rawMsg(1, []int64{4096, 8}, 0), true},
}

// TestAssembleRejectsMalformedMessages: each broken rule is a typed error
// from both directions' assembly, whichever source slot the message sits in
// and with well-formed neighbours around it — never a panic.
func TestAssembleRejectsMalformedMessages(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	good := []pfs.Segment{{Off: 4096, Len: 16}, {Off: 6000, Len: 100}}
	for _, tc := range malformed {
		for slot := 0; slot < 3; slot++ {
			for _, write := range []bool{true, false} {
				msgs := [][]byte{buildMsg(rng, good, write), buildMsg(rng, good, write), buildMsg(rng, good, write)}
				msgs[slot] = tc.msg
				if write && !tc.write {
					// As a write message the entries must also carry payload;
					// give them theirs so the rule under test is what fails.
					msgs[slot] = withPayload(tc.msg)
				}
				if !write && tc.write {
					continue
				}
				var err error
				if write {
					var w writeVec
					err = w.assemble(msgs, 4096, 8192)
				} else {
					var cov coverage
					err = cov.assemble(msgs, 4096, 8192)
					if !cov.empty() || cov.data != nil {
						t.Errorf("%s: a failed read assembly left a coverage behind", tc.name)
					}
				}
				if !errors.Is(err, errBadRoundMsg) {
					t.Errorf("%s (slot %d, write=%v): error %v, want errBadRoundMsg", tc.name, slot, write, err)
				}
			}
		}
	}
}

// withPayload appends the bytes a header's positive in-range lengths claim,
// so a message malformed as a read request is malformed the same way as a
// write message.
func withPayload(msg []byte) []byte {
	if len(msg) < 8 {
		return msg
	}
	n := binary.BigEndian.Uint64(msg)
	out := append([]byte(nil), msg...)
	for i := uint64(0); i < n && 24+16*i <= uint64(len(msg)); i++ {
		if l := int64(binary.BigEndian.Uint64(msg[16+16*i:])); l > 0 && l < 1<<16 {
			out = append(out, make([]byte, l)...)
		}
	}
	return out
}

// splitFuzzMsgs cuts fuzz input into up to 8 messages: a length byte pair,
// then that many bytes, repeated. Each message is its own exactly-sized
// allocation, so an assembly that reads or slices past a message faults.
func splitFuzzMsgs(data []byte) [][]byte {
	msgs := make([][]byte, 8)
	for src := 0; src < len(msgs) && len(data) >= 2; src++ {
		n := int(binary.BigEndian.Uint16(data))
		data = data[2:]
		if n > len(data) {
			n = len(data)
		}
		if n > 0 {
			msgs[src] = append(make([]byte, 0, n), data[:n]...)
		}
		data = data[n:]
	}
	return msgs
}

// joinFuzzMsgs is splitFuzzMsgs' inverse, for seeding the corpus.
func joinFuzzMsgs(msgs ...[]byte) []byte {
	var out []byte
	for _, m := range msgs {
		out = binary.BigEndian.AppendUint16(out, uint16(len(m)))
		out = append(out, m...)
	}
	return out
}

func fuzzSeeds(f *testing.F, write bool) {
	rng := rand.New(rand.NewSource(3))
	a := buildMsg(rng, []pfs.Segment{{Off: 4096, Len: 16}, {Off: 4112, Len: 100}}, write)
	b := buildMsg(rng, []pfs.Segment{{Off: 4100, Len: 32}, {Off: 7000, Len: 64}}, write)
	f.Add(joinFuzzMsgs(a, b))
	f.Add(joinFuzzMsgs(a, nil, b, a))
	for _, tc := range malformed {
		f.Add(joinFuzzMsgs(a, tc.msg))
		f.Add(joinFuzzMsgs(withPayload(tc.msg), b))
	}
}

// FuzzAssembleWrite feeds arbitrary bytes to the write-side wire decoder: it
// must not panic or reach past a message, must fail only with errBadRoundMsg,
// and whatever it accepts must equal the sort-based reference.
func FuzzAssembleWrite(f *testing.F) {
	fuzzSeeds(f, true)
	f.Fuzz(func(t *testing.T, data []byte) {
		msgs := splitFuzzMsgs(data)
		var w writeVec
		if err := w.assemble(msgs, 4096, 8192); err != nil {
			if !errors.Is(err, errBadRoundMsg) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		segs, iov := refAssembleWrite(msgs)
		if !slices.Equal(w.segs, segs) || len(w.iov) != len(iov) {
			t.Fatalf("accepted input assembles to %v / %d iovec entries, reference %v / %d", w.segs, len(w.iov), segs, len(iov))
		}
		for i := range iov {
			if !bytes.Equal(w.iov[i], iov[i]) {
				t.Fatalf("iovec entry %d differs from the reference", i)
			}
		}
	})
}

// FuzzAssembleRead is the same contract for read requests, down to the
// replies built from the recorded positions.
func FuzzAssembleRead(f *testing.F) {
	fuzzSeeds(f, false)
	f.Fuzz(func(t *testing.T, data []byte) {
		msgs := splitFuzzMsgs(data)
		var cov coverage
		if err := cov.assemble(msgs, 4096, 8192); err != nil {
			if !errors.Is(err, errBadRoundMsg) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		defer cov.release()
		segs, pos := refCoverage(msgs)
		if !slices.Equal(cov.segs, segs) || len(cov.merge.cur) != len(pos) {
			t.Fatalf("accepted input covers %v from %d sources, reference %v from %d", cov.segs, len(cov.merge.cur), segs, len(pos))
		}
		for _, c := range cov.merge.cur {
			for i, rq := range cov.reqs[c.first : c.first+c.n] {
				if rq != pos[c.src][i] || rq.pos+rq.len > int64(len(cov.data)) {
					t.Fatalf("request %d of source %d at %+v, reference %+v, buffer %d", i, c.src, rq, pos[c.src][i], len(cov.data))
				}
			}
		}
	})
}

// segsLen sums a segment list's byte length.
func segsLen(segs []pfs.Segment) int64 {
	var n int64
	for _, s := range segs {
		n += s.Len
	}
	return n
}
