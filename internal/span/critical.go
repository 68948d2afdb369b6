package span

import (
	"fmt"
	"sort"
)

// RoundCritical names the rank and phase that bounded one two-phase round
// of one collective call. "Bounded" means: among all ranks participating in
// the round, this rank's local work took longest — from its round start to
// the end of its last child phase, less the stretches it spent only waiting
// in an agree span (the round's count allreduce, which also carries an
// earlier round's error verdict, and the collective's closing agreement:
// the early ranks wait there for the slowest to arrive, so that time is the
// slowest rank's work, not theirs) — and Phase is the longest working child
// phase on that rank, never agree. Durations are within-rank, so the
// analysis is immune to cross-rank clock skew.
type RoundCritical struct {
	Coll  int     // collective call index (order of coll_* spans per rank)
	Round int     // round index within the collective
	Rank  int     // bounding rank
	Phase string  // dominant phase on the bounding rank
	Work  float64 // bounding rank's work seconds for the round
	Min   float64 // fastest rank's work seconds
	Mean  float64 // mean work seconds across participating ranks
	Ranks int     // ranks that contributed a span to this round
}

// Spread returns max/mean work, the round's load-imbalance factor
// (1.0 = perfectly balanced).
func (rc RoundCritical) Spread() float64 {
	if rc.Mean <= 0 {
		return 1
	}
	return rc.Work / rc.Mean
}

// byID indexes one rank's spans for parent-chain walks.
func index(spans []Span) map[int]map[int64]*Span {
	idx := make(map[int]map[int64]*Span)
	for i := range spans {
		s := &spans[i]
		m := idx[s.Rank]
		if m == nil {
			m = make(map[int64]*Span)
			idx[s.Rank] = m
		}
		m[s.ID] = s
	}
	return idx
}

// collIndexes assigns each rank's collective spans (coll_write/coll_read)
// a per-rank sequence number. Collectives execute in lockstep across ranks,
// so the i-th collective on rank a and the i-th on rank b are the same call.
func collIndexes(spans []Span) map[int]map[int64]int {
	perRank := make(map[int][]*Span)
	for i := range spans {
		s := &spans[i]
		if s.Phase == CollWrite || s.Phase == CollRead {
			perRank[s.Rank] = append(perRank[s.Rank], s)
		}
	}
	out := make(map[int]map[int64]int)
	for rank, list := range perRank {
		sort.Slice(list, func(i, j int) bool {
			if list[i].Start != list[j].Start {
				return list[i].Start < list[j].Start
			}
			return list[i].ID < list[j].ID
		})
		m := make(map[int64]int, len(list))
		for i, s := range list {
			m[s.ID] = i
		}
		out[rank] = m
	}
	return out
}

// CriticalPath computes, for every (collective, round) pair present in the
// merged spans, which rank and phase bounded it. Rounds with spans from a
// subset of ranks (uneven traces) are analyzed over the ranks present.
// Returns rounds sorted by (Coll, Round).
//
// A round's spans come from two places: children of its round span
// (pack/exchange; agree is a child too, but a wait, see waits), and
// floating leaves recorded directly under the collective span with an
// explicit Round tag — agg_write/agg_read/reply_xchg/scatter, whose
// intervals can genuinely overlap a neighbouring round's span. Traces
// recorded before there was one round loop also nest those four under the
// round span; they are attributed the same way, so committed traces still
// import. Per (rank, collective) the rounds are walked in index order with
// a time cursor: round r is charged max(0, lastEnd_r − max(roundStart_r,
// cursor)) and the cursor advances to lastEnd_r, so an aggregator I/O that
// completes inside round r+1's window is attributed to round r without the
// overlapped stretch being counted twice — per-rank round works never sum
// past wall time. Traces with no overlap get the historical attribution
// unchanged. Finally the rank's wait stretches inside the charged interval
// are taken off, so a rank whose round is long only because it waited in
// agree is not named.
func CriticalPath(spans []Span) []RoundCritical {
	idx := index(spans)
	colls := collIndexes(spans)
	idle := waits(spans)

	// roundAgg accumulates one (rank, coll, round)'s evidence.
	type rkey struct{ rank, coll, round int }
	type roundAgg struct {
		hasSpan    bool    // a round span was present
		start, end float64 // the round span's interval
		rawEnd     float64 // latest attributed span end
		minStart   float64 // earliest attributed span start (no round span)
		domPhase   string
		domDur     float64
		n          int // attributed spans
	}
	aggs := make(map[rkey]*roundAgg)
	get := func(k rkey) *roundAgg {
		ra := aggs[k]
		if ra == nil {
			ra = &roundAgg{minStart: -1}
			aggs[k] = ra
		}
		return ra
	}

	// Pass 1: round spans establish their groups; remember each round
	// span's key so its children can be attributed in pass 2.
	roundKey := make(map[int]map[int64]rkey)
	for i := range spans {
		s := &spans[i]
		if s.Phase != Round {
			continue
		}
		coll := -1
		if p := idx[s.Rank][s.Parent]; p != nil {
			if ci, ok := colls[s.Rank][p.ID]; ok {
				coll = ci
			}
		}
		k := rkey{rank: s.Rank, coll: coll, round: int(s.Round)}
		m := roundKey[s.Rank]
		if m == nil {
			m = make(map[int64]rkey)
			roundKey[s.Rank] = m
		}
		m[s.ID] = k
		ra := get(k)
		ra.hasSpan = true
		ra.start, ra.end = s.Start, s.End
	}

	// Pass 2: attribute the working spans — children of a round span, or
	// round-tagged leaves directly under a collective span (the possibly
	// overlapped phases). Leaves deeper in the tree stay out.
	attribute := func(ra *roundAgg, s *Span) {
		ra.n++
		if s.End > ra.rawEnd {
			ra.rawEnd = s.End
		}
		if ra.minStart < 0 || s.Start < ra.minStart {
			ra.minStart = s.Start
		}
		if d := s.Dur(); d >= ra.domDur {
			ra.domDur, ra.domPhase = d, s.Phase
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Phase == Round || s.Phase == Agree || s.Parent == 0 {
			continue
		}
		if k, ok := roundKey[s.Rank][s.Parent]; ok {
			attribute(get(k), s)
			continue
		}
		parent := idx[s.Rank][s.Parent]
		if parent == nil || s.Round < 0 {
			continue
		}
		if parent.Phase == CollWrite || parent.Phase == CollRead {
			if ci, ok := colls[s.Rank][parent.ID]; ok {
				attribute(get(rkey{rank: s.Rank, coll: ci, round: int(s.Round)}), s)
			}
		}
	}

	// Per (rank, coll): cursor walk in round order.
	type ckey struct{ rank, coll int }
	perColl := make(map[ckey][]rkey)
	for k := range aggs {
		ck := ckey{rank: k.rank, coll: k.coll}
		perColl[ck] = append(perColl[ck], k)
	}

	type key struct{ coll, round int }
	type entry struct {
		rank  int
		work  float64
		phase string
	}
	groups := make(map[key][]entry)
	for _, keys := range perColl {
		sort.Slice(keys, func(i, j int) bool { return keys[i].round < keys[j].round })
		cursor := -1.0
		for _, k := range keys {
			ra := aggs[k]
			start := ra.start
			if !ra.hasSpan {
				start = ra.minStart
			}
			rawEnd := ra.rawEnd
			phase := ra.domPhase
			if ra.n == 0 {
				// Childless round span: its own duration is the work (the
				// historical fallback).
				rawEnd = ra.end
				phase = Round
			}
			if cursor > start {
				start = cursor
			}
			work := rawEnd - start - overlap(idle[k.rank], start, rawEnd)
			if work < 0 {
				work = 0
			}
			if rawEnd > cursor {
				cursor = rawEnd
			}
			gk := key{k.coll, k.round}
			groups[gk] = append(groups[gk], entry{rank: k.rank, work: work, phase: phase})
		}
	}

	out := make([]RoundCritical, 0, len(groups))
	for k, entries := range groups {
		rc := RoundCritical{Coll: k.coll, Round: k.round, Min: -1}
		var sum float64
		for _, e := range entries {
			sum += e.work
			if e.work > rc.Work || (e.work == rc.Work && (rc.Ranks == 0 || e.rank < rc.Rank)) {
				rc.Work, rc.Rank, rc.Phase = e.work, e.rank, e.phase
			}
			if rc.Min < 0 || e.work < rc.Min {
				rc.Min = e.work
			}
			rc.Ranks++
		}
		if rc.Min < 0 {
			rc.Min = 0
		}
		rc.Mean = sum / float64(len(entries))
		out = append(out, rc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Coll != out[j].Coll {
			return out[i].Coll < out[j].Coll
		}
		return out[i].Round < out[j].Round
	})
	return out
}

// BoundCounts tallies how often each rank bounded a round — the straggler
// attribution summary ("rank 3 bounded 14/24 rounds").
func BoundCounts(rounds []RoundCritical) map[int]int {
	out := make(map[int]int)
	for _, rc := range rounds {
		out[rc.Rank]++
	}
	return out
}

// RankLoad is one rank's total time and call count in one phase.
type RankLoad struct {
	Rank    int
	Seconds float64
	Calls   int
	Bytes   int64
}

// Load aggregates one phase across ranks: the per-phase load-imbalance
// histogram. PerRank covers every rank of the trace, and Min, Mean and the
// imbalance factors are taken over all of them: a rank that recorded no span
// of the phase (an aggregator whose window was empty, a rank that is no
// aggregator) was idle while the busiest one worked, which is the imbalance.
type Load struct {
	Phase   string
	PerRank []RankLoad // sorted by rank
	Min     float64
	Max     float64
	Mean    float64
	MaxRank int
	Calls   int
	Bytes   int64
}

// Imbalance returns max/mean seconds (1.0 = perfectly balanced; 0 when the
// phase saw no time).
func (l Load) Imbalance() float64 {
	if l.Mean <= 0 {
		return 0
	}
	return l.Max / l.Mean
}

// ByteImbalance returns max/mean of the per-rank byte totals (1.0 =
// perfectly balanced; 0 when the phase moved no bytes). For aggregator
// phases this is the byte-load spread of the file domains — unlike Imbalance
// it is independent of per-rank timing noise.
func (l Load) ByteImbalance() float64 {
	var max, sum int64
	for _, rl := range l.PerRank {
		sum += rl.Bytes
		if rl.Bytes > max {
			max = rl.Bytes
		}
	}
	if sum <= 0 {
		return 0
	}
	mean := float64(sum) / float64(len(l.PerRank))
	return float64(max) / mean
}

// Busy returns how many ranks recorded at least one span of the phase.
func (l Load) Busy() int {
	n := 0
	for _, rl := range l.PerRank {
		if rl.Calls > 0 {
			n++
		}
	}
	return n
}

// PhaseLoad computes the per-rank load for one phase tag over every rank
// that recorded a span of any phase. A span's seconds leave out the rank's
// wait stretches inside it (waits), so a round or a collective counts the
// work it did, not how long it sat in an agreement; agree spans themselves
// count whole.
func PhaseLoad(spans []Span, phase string) Load {
	return phaseLoad(spans, phase, waits(spans))
}

func phaseLoad(spans []Span, phase string, idle map[int][]interval) Load {
	per := make(map[int]*RankLoad)
	for i := range spans {
		s := &spans[i]
		rl := per[s.Rank]
		if rl == nil {
			rl = &RankLoad{Rank: s.Rank}
			per[s.Rank] = rl
		}
		if s.Phase != phase {
			continue
		}
		rl.Seconds += s.Dur()
		if phase != Agree {
			rl.Seconds -= overlap(idle[s.Rank], s.Start, s.End)
		}
		rl.Calls++
		rl.Bytes += s.Bytes
	}
	l := Load{Phase: phase, Min: -1}
	var sum float64
	for _, rl := range per {
		l.PerRank = append(l.PerRank, *rl)
		sum += rl.Seconds
		l.Calls += rl.Calls
		l.Bytes += rl.Bytes
		if rl.Seconds > l.Max || (rl.Seconds == l.Max && len(l.PerRank) == 1) {
			l.Max, l.MaxRank = rl.Seconds, rl.Rank
		}
		if l.Min < 0 || rl.Seconds < l.Min {
			l.Min = rl.Seconds
		}
	}
	if l.Min < 0 {
		l.Min = 0
	}
	if len(l.PerRank) > 0 {
		l.Mean = sum / float64(len(l.PerRank))
	}
	sort.Slice(l.PerRank, func(i, j int) bool { return l.PerRank[i].Rank < l.PerRank[j].Rank })
	return l
}

// AllLoads computes PhaseLoad for every phase present, sorted most
// imbalanced first (ties broken by total time, then name) — the straggler
// attribution table.
func AllLoads(spans []Span) []Load {
	seen := make(map[string]bool)
	var phases []string
	for i := range spans {
		if p := spans[i].Phase; !seen[p] {
			seen[p] = true
			phases = append(phases, p)
		}
	}
	out := make([]Load, 0, len(phases))
	idle := waits(spans)
	for _, p := range phases {
		out = append(out, phaseLoad(spans, p, idle))
	}
	sort.Slice(out, func(i, j int) bool {
		bi, bj := out[i].Imbalance(), out[j].Imbalance()
		if bi != bj {
			return bi > bj
		}
		si := out[i].Mean * float64(len(out[i].PerRank))
		sj := out[j].Mean * float64(len(out[j].PerRank))
		if si != sj {
			return si > sj
		}
		return out[i].Phase < out[j].Phase
	})
	return out
}

// interval is a half-open stretch [lo, hi) of one rank's clock.
type interval struct{ lo, hi float64 }

// waits returns, per rank, the stretches the rank spent only waiting: the
// union of its agree spans less every other leaf span of the rank. An
// agreement an aggregator sits in while its own file request is in flight
// (a pfs/agg leaf overlapping it) is I/O going on, not a wait. Each list is
// sorted and disjoint.
func waits(spans []Span) map[int][]interval {
	type rankID struct {
		rank int
		id   int64
	}
	isParent := make(map[rankID]bool)
	for i := range spans {
		if spans[i].Parent != 0 {
			isParent[rankID{spans[i].Rank, spans[i].Parent}] = true
		}
	}
	agree := make(map[int][]interval)
	busy := make(map[int][]interval)
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Phase == Agree:
			agree[s.Rank] = append(agree[s.Rank], interval{s.Start, s.End})
		case !isParent[rankID{s.Rank, s.ID}]:
			busy[s.Rank] = append(busy[s.Rank], interval{s.Start, s.End})
		}
	}
	out := make(map[int][]interval, len(agree))
	for rank, a := range agree {
		out[rank] = subtract(union(a), union(busy[rank]))
	}
	return out
}

// union sorts intervals and merges the overlapping ones, in place.
func union(in []interval) []interval {
	if len(in) == 0 {
		return nil
	}
	sort.Slice(in, func(i, j int) bool { return in[i].lo < in[j].lo })
	out := in[:1]
	for _, iv := range in[1:] {
		if last := &out[len(out)-1]; iv.lo <= last.hi {
			last.hi = max(last.hi, iv.hi)
		} else {
			out = append(out, iv)
		}
	}
	return out
}

// subtract returns from less cover, both sorted and disjoint.
func subtract(from, cover []interval) []interval {
	var out []interval
	j := 0
	for _, iv := range from {
		lo := iv.lo
		for j < len(cover) && cover[j].hi <= lo {
			j++
		}
		for k := j; k < len(cover) && cover[k].lo < iv.hi && lo < iv.hi; k++ {
			if cover[k].lo > lo {
				out = append(out, interval{lo, cover[k].lo})
			}
			lo = max(lo, cover[k].hi)
		}
		if lo < iv.hi {
			out = append(out, interval{lo, iv.hi})
		}
	}
	return out
}

// overlap returns how much of [lo, hi) the sorted, disjoint list covers.
func overlap(list []interval, lo, hi float64) float64 {
	var d float64
	for i := sort.Search(len(list), func(i int) bool { return list[i].hi > lo }); i < len(list) && list[i].lo < hi; i++ {
		d += min(list[i].hi, hi) - max(list[i].lo, lo)
	}
	return d
}

// Histogram buckets the per-rank seconds of a Load into n equal-width
// buckets over [Min, Max], returning counts and human-readable bucket
// labels. Useful for the aggregator load-imbalance view.
func (l Load) Histogram(n int) (counts []int, labels []string) {
	if n < 1 || len(l.PerRank) == 0 {
		return nil, nil
	}
	counts = make([]int, n)
	labels = make([]string, n)
	width := (l.Max - l.Min) / float64(n)
	for i := range labels {
		lo := l.Min + float64(i)*width
		labels[i] = fmt.Sprintf("[%.3gms, %.3gms)", lo*1e3, (lo+width)*1e3)
	}
	if width <= 0 {
		labels[0] = fmt.Sprintf("[%.3gms]", l.Min*1e3)
		counts[0] = len(l.PerRank)
		for i := 1; i < n; i++ {
			labels[i] = labels[0]
		}
		return counts[:1], labels[:1]
	}
	for _, rl := range l.PerRank {
		b := int((rl.Seconds - l.Min) / width)
		if b >= n {
			b = n - 1
		}
		if b < 0 {
			b = 0
		}
		counts[b]++
	}
	return counts, labels
}
