package mpiio

// Aggregator failover for two-phase collective I/O (DESIGN.md §8). When a
// rank dies mid-collective, the failure detector revokes the communicator
// and every survivor's round loop unwinds here with *ErrRevoked. The
// failover protocol is:
//
//  1. Agree the resume point over the survivors (Comm.AgreeFT — the only
//     collective that completes on a revoked communicator). For writes the
//     resume round is the MAX of the survivors' agreed rounds. The lemma: a
//     nil result, on ANY rank, from the allreduce that carries round r's
//     verdict proves every aggregator's round-r write landed — no rank
//     gets a result before every rank has contributed, and an aggregator
//     contributes its round-r outcome only after that write returned — so
//     rounds before the max are durable. On a write that allreduce is round
//     r+1's exchange, or the closing agreement for the last round
//     (rounds.go). For reads it is the MIN of the scattered rounds (round r
//     scatters only after round r+1's exchange carried its verdict): every
//     survivor must still receive the rounds the furthest-behind one is
//     missing.
//  2. Shrink to the dense survivor communicator and adopt it in place —
//     *f.comm is the same *Comm every layer above holds, so the swap
//     retargets the whole stack at once; the dead aggregator's file domain
//     is reassigned when the replay replans over the survivors.
//  3. Clip this rank's request to the unfinished windows (every
//     aggregator's domain from the resume round on), build a compact
//     replay request, and re-run it as a fresh two-phase collective on the
//     survivor communicator. Replays are idempotent full rewrites, so
//     bytes that actually landed before the crash are simply rewritten
//     with identical contents.
//  4. Writes only: Allgather the survivors' replayed extents and subtract
//     them from the unfinished windows. What remains was held only by the
//     dead rank: it is reported as a DegradedError naming the regions,
//     never silently dropped. The set is conservative — a byte the dead
//     rank's aggregator managed to land before dying is still reported
//     missing if no survivor holds it, and a window byte no rank ever
//     wrote is indistinguishable from the dead rank's (exact for dense
//     requests like FLASH checkpoints). Reads recover fully: the file is
//     intact, and only the dead rank's own destination buffer died with
//     it.
//
// Every survivor computes the failover from agreed state (the AgreeFT
// result, the deterministic plan, the Allgathered extents), so all
// survivors return the same error — the PR 2 invariant, extended across
// rank death. A second death during the failover unwinds as *ErrRevoked
// again (cascading failures are best-effort: no hangs, but no second
// replay).

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"pnetcdf/internal/fault"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/pfs"
	"pnetcdf/internal/span"
)

// Extent is one absolute byte range of the file.
type Extent struct {
	Off, Len int64
}

// DegradedError is the typed degraded-completion outcome of a collective
// write that failed over: the survivors' data is durable, the file is
// consistent, but the listed regions — held only by the dead rank(s) —
// were never written. Failed holds the failed ranks of the ORIGINAL
// communicator (the numbering the caller knows). Identical on every
// survivor.
type DegradedError struct {
	Failed  []int
	Missing []Extent
}

func (e *DegradedError) Error() string {
	var n int64
	for _, x := range e.Missing {
		n += x.Len
	}
	return fmt.Sprintf("mpiio: degraded completion: ranks %v failed; %d bytes in %d regions held only by them are missing",
		e.Failed, n, len(e.Missing))
}

// AsDegraded unwraps err to its *DegradedError, if it is one.
func AsDegraded(err error) (*DegradedError, bool) {
	var de *DegradedError
	if errors.As(err, &de) {
		return de, true
	}
	return nil, false
}

// ftProgress records how far a collective call provably got, for the
// failover's resume-point agreement. planOK is set once the plan
// Allreduce completed (the plan is then identical on every rank that has
// it); agreed counts the leading rounds this rank has seen agreed (writes:
// the allreduce carrying the round's verdict — round r+1's exchange, or the
// closing agreement — returned nil; reads: replies scattered).
type ftProgress struct {
	planOK bool
	plan   collectivePlan
	agreed int64
}

// roundAgreed marks round r complete.
func (p *ftProgress) roundAgreed(r int64) {
	if r+1 > p.agreed {
		p.agreed = r + 1
	}
}

// killPoint terminates this rank here when the fault injector armed a
// rank-kill at this named point (fault.KillRank); a no-op otherwise.
func (f *File) killPoint(point string) {
	if inj := f.fs.Fault(); inj != nil && inj.KillCheck(f.comm.Rank(), point) {
		f.comm.Die(fault.ErrKilled)
	}
}

// killHook returns killPoint as a closure for call sites inside helpers
// (sparseExchange), or nil when no injector is installed.
func (f *File) killHook(point string) func() {
	if f.fs.Fault() == nil {
		return nil
	}
	return func() { f.killPoint(point) }
}

// failoverShrink runs steps 1 and 2: agree [planOK, resume] over the
// survivors, shrink, and adopt the survivor communicator in place.
// maxAgreed selects the write-side MAX combine (encoded as a min of
// negations). Returns resume, or -1 when some survivor never completed
// the plan (the caller must replay the entire request).
func (f *File) failoverShrink(prog *ftProgress, maxAgreed bool) (int64, error) {
	planFlag, v := int64(0), prog.agreed
	if prog.planOK {
		planFlag = 1
	}
	if maxAgreed {
		v = -v
	}
	res := f.comm.AgreeFT([]int64{planFlag, v}, mpi.OpMin)
	nc, err := f.comm.Shrink()
	if err != nil {
		return 0, err
	}
	*f.comm = *nc
	resume := res[1]
	if maxAgreed {
		resume = -resume
	}
	if res[0] == 0 {
		resume = -1
	}
	return resume, nil
}

// unfinishedWindows returns the byte ranges of the old plan not yet agreed
// durable: every aggregator domain's tail from the resume round on, in
// file order (domains are disjoint and sorted, so no merging is needed).
func unfinishedWindows(plan collectivePlan, resume int64) []Extent {
	var out []Extent
	for a := 0; a < plan.naggs; a++ {
		lo := plan.bounds[a] + resume*plan.cbbuf
		hi := plan.bounds[a+1]
		if lo < plan.bounds[a] {
			lo = plan.bounds[a]
		}
		if hi > lo {
			out = append(out, Extent{Off: lo, Len: hi - lo})
		}
	}
	return out
}

// clipToExtents clips segs to the extent list, appending to out. Extents
// are sorted and disjoint, so the clip stays in file order with buffer
// positions from the original request's prefix sums.
func clipToExtents(segs []pfs.Segment, prefix []int64, exts []Extent, out []reqSeg) []reqSeg {
	full := segSpan{i0: 0, i1: len(segs)}
	for _, e := range exts {
		out = intersectRange(segs, prefix, full, e.Off, e.Off+e.Len, out)
	}
	return out
}

// replayRequest linearizes a clip into a compact segment list + payload
// buffer for the failover's fresh collective call. File-contiguous clips
// merge into one segment; the payload holds their bytes in clip order, so
// segPrefix positions into it line up. A write's src fills the payload from
// the original request's positions (the clip's bufPos) — the caller's memory
// is alive for the whole blocking call, so the replay is exact. A read
// passes no src: the replay fills the payload, and failoverRead hands it on.
func replayRequest(clip []reqSeg, src Source) ([]pfs.Segment, Bytes) {
	var total int64
	for _, q := range clip {
		total += q.len
	}
	segs := make([]pfs.Segment, 0, len(clip))
	payload := make(Bytes, total)
	pos := int64(0)
	for _, q := range clip {
		if n := len(segs); n > 0 && segs[n-1].Off+segs[n-1].Len == q.off {
			segs[n-1].Len += q.len
		} else {
			segs = append(segs, pfs.Segment{Off: q.off, Len: q.len})
		}
		if src != nil {
			src.Fill(payload[pos:pos+q.len], q.bufPos)
		}
		pos += q.len
	}
	return segs, payload
}

// failoverWrite completes a collective write whose round loop was unwound
// by a revocation. On return the survivors' data is durable; the error is
// nil (full recovery), a *DegradedError (dead rank held data alone), or
// the replay's own agreed error.
func (f *File) failoverWrite(off, n int64, src Source, prog *ftProgress, rv *mpi.ErrRevoked, t0 float64) error {
	sf := f.sp.Begin(span.FTFailover)
	defer sf.End()
	resume, err := f.failoverShrink(prog, true)
	if err != nil {
		return err
	}
	segs, vErr := f.viewSegments(off, n)
	var clip []reqSeg
	var unfinished []Extent
	if vErr == nil {
		if resume >= 0 {
			unfinished = unfinishedWindows(prog.plan, resume)
			clip = clipToExtents(segs, segPrefix(segs), unfinished, nil)
		} else {
			// Some survivor never learned the plan: no round can be proven
			// durable, so replay the entire request (idempotent rewrites).
			clip = clipToExtents(segs, segPrefix(segs), []Extent{{Off: 0, Len: 1<<63 - 1}}, nil)
		}
	}
	rsegs, rbuf := replayRequest(clip, src)
	var rprog ftProgress
	if err := f.collWriteSegs(rsegs, &rbuf, vErr, &rprog, t0); err != nil {
		return err
	}
	if rprog.planOK {
		f.st.Add(iostat.FTFailoverRounds, rprog.plan.rounds)
	}
	if resume < 0 {
		// Without the old plan's agreed geometry the missing set cannot be
		// bounded; the crash points all sit after the plan, so this is a
		// defensive path, reported degraded with an unquantified set.
		f.st.Add(iostat.FTDegradedCompletions, 1)
		return &DegradedError{Failed: rv.Failed}
	}
	// Step 4: what part of the unfinished windows does nobody hold?
	mine := make([]int64, 0, 2*len(rsegs))
	for _, s := range rsegs {
		mine = append(mine, s.Off, s.Len)
	}
	all := f.comm.Allgather(mpi.EncodeI64s(mine))
	var have []Extent
	for _, blob := range all {
		vals := mpi.DecodeI64s(blob)
		for i := 0; i+1 < len(vals); i += 2 {
			have = append(have, Extent{Off: vals[i], Len: vals[i+1]})
		}
	}
	missing := subtractExtents(unfinished, mergeExtents(have))
	if len(missing) > 0 {
		f.st.Add(iostat.FTDegradedCompletions, 1)
		return &DegradedError{Failed: rv.Failed, Missing: missing}
	}
	return nil
}

// failoverRead completes a collective read whose round loop was unwound by
// a revocation: replay the not-yet-scattered rounds' clip of this rank's
// request on the survivor communicator and hand the bytes to the caller's
// sink. Reads always recover fully.
func (f *File) failoverRead(off, n int64, dst Sink, prog *ftProgress, t0 float64) error {
	sf := f.sp.Begin(span.FTFailover)
	defer sf.End()
	resume, err := f.failoverShrink(prog, false)
	if err != nil {
		return err
	}
	segs, vErr := f.viewSegments(off, n)
	var clip []reqSeg
	if vErr == nil {
		exts := []Extent{{Off: 0, Len: 1<<63 - 1}}
		if resume >= 0 {
			exts = unfinishedWindows(prog.plan, resume)
		}
		clip = clipToExtents(segs, segPrefix(segs), exts, nil)
	}
	rsegs, rbuf := replayRequest(clip, nil)
	var rprog ftProgress
	if err := f.collReadSegs(rsegs, &rbuf, vErr, &rprog, t0); err != nil {
		return err
	}
	if rprog.planOK {
		f.st.Add(iostat.FTFailoverRounds, rprog.plan.rounds)
	}
	pos := int64(0)
	for _, q := range clip {
		dst.Drain(q.bufPos, rbuf[pos:pos+q.len])
		pos += q.len
	}
	return nil
}

// mergeExtents sorts and merges overlapping/adjacent extents.
func mergeExtents(exts []Extent) []Extent {
	if len(exts) == 0 {
		return nil
	}
	slices.SortFunc(exts, func(a, b Extent) int { return cmp.Compare(a.Off, b.Off) })
	out := exts[:1]
	for _, e := range exts[1:] {
		last := &out[len(out)-1]
		if e.Off <= last.Off+last.Len {
			if end := e.Off + e.Len; end > last.Off+last.Len {
				last.Len = end - last.Off
			}
		} else {
			out = append(out, e)
		}
	}
	return out
}

// subtractExtents returns from minus cover; both must be sorted and
// disjoint (cover merged).
func subtractExtents(from, cover []Extent) []Extent {
	var out []Extent
	j := 0
	for _, e := range from {
		lo, hi := e.Off, e.Off+e.Len
		for j < len(cover) && cover[j].Off+cover[j].Len <= lo {
			j++
		}
		k := j
		for lo < hi && k < len(cover) && cover[k].Off < hi {
			c := cover[k]
			if c.Off > lo {
				out = append(out, Extent{Off: lo, Len: c.Off - lo})
			}
			if c.Off+c.Len > lo {
				lo = c.Off + c.Len
			}
			k++
		}
		if lo < hi {
			out = append(out, Extent{Off: lo, Len: hi - lo})
		}
	}
	return out
}

// segsLen sums a segment list's byte length.
func segsLen(segs []pfs.Segment) int64 {
	var n int64
	for _, s := range segs {
		n += s.Len
	}
	return n
}
