// Package behindtest checks mpiio's write-behind timing contract (DESIGN.md
// §13) over the merged spans of a run, for the tests of every layer that must
// keep it. A data write is a pfs_write span recorded under a coll_write or
// indep_write span; every other pfs_write — a header or numrecs publish, a
// fill or a relocation — is a publish, written through.
package behindtest

import (
	"fmt"
	"math"
	"sort"

	"pnetcdf/internal/span"
)

// Params are the run's file-system link and hints, and the clock each rank
// read right after its last Sync or Close.
type Params struct {
	NetLatency  float64 // pfs.Config.NetLatency
	ClientBW    float64 // pfs.Config.ClientBW
	CBBuffer    int64   // cb_buffer_size: the budget of a collective round's writes
	IndWrBuffer int64   // ind_wr_buffer_size: the budget of an independent write
	Drained     map[int]float64
}

// eps absorbs the rounding of clocks summed in a different order.
const eps = 1e-12

// Check returns every breach of the contract, empty when there is none:
//
//	(a) after Sync or Close a rank's clock is past every pfs_* span it recorded;
//	(b) at every data write's issue, the rank's bytes in flight, that write's
//	    included, are within the issuing path's hint — or, for a write larger
//	    than the hint, nothing else is in flight;
//	(c) a rank's writes never share its link: each is issued once the one
//	    before it has crossed the link;
//	(d) a publish is issued only after every data write issued before it, on
//	    any rank, has completed.
func Check(spans []span.Span, p Params) []string {
	var out []string
	bad := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	path := paths(spans)
	budget := func(s span.Span) int64 {
		switch path(s) {
		case span.CollWrite:
			return p.CBBuffer
		case span.IndepWrite:
			return p.IndWrBuffer
		}
		return 0
	}
	writes := map[int][]span.Span{}
	var data, publishes []span.Span
	for _, s := range spans {
		if end, ok := p.Drained[s.Rank]; ok && (s.Phase == span.PFSWrite || s.Phase == span.PFSRead) && s.End > end+eps {
			bad("(a) rank %d: clock %g after Sync/Close, before its %s ending at %g", s.Rank, end, s.Phase, s.End)
		}
		if s.Phase != span.PFSWrite {
			continue
		}
		writes[s.Rank] = append(writes[s.Rank], s)
		if path(s) != "" {
			data = append(data, s)
		} else {
			publishes = append(publishes, s)
		}
	}
	for rank, ws := range writes {
		sort.Slice(ws, func(i, j int) bool {
			return ws[i].Start < ws[j].Start || ws[i].Start == ws[j].Start && ws[i].ID < ws[j].ID
		})
		for i, w := range ws {
			if i > 0 {
				prev := ws[i-1]
				if left := prev.Start + p.NetLatency + float64(prev.Bytes)/p.ClientBW; w.Start < left-eps {
					bad("(c) rank %d: write at %g issued while the one at %g was still on the link until %g", rank, w.Start, prev.Start, left)
				}
			}
			b := budget(w)
			if b == 0 {
				continue
			}
			var inflight int64
			for _, e := range ws[:i] {
				if budget(e) > 0 && e.End > w.Start+eps {
					inflight += e.Bytes
				}
			}
			if inflight > 0 && inflight+w.Bytes > b {
				bad("(b) rank %d: write of %d bytes at %g issued with %d bytes in flight, budget %d", rank, w.Bytes, w.Start, inflight, b)
			}
		}
	}
	for _, pub := range publishes {
		for _, w := range data {
			if w.Start <= pub.Start && w.End > pub.Start+eps {
				bad("(d) rank %d published at %g, before rank %d's write at %g completed at %g", pub.Rank, pub.Start, w.Rank, w.Start, w.End)
			}
		}
	}
	return out
}

// Exercised counts the data writes among spans and the publishes issued
// after the first of them, so a test can tell a contract that held from one
// that had nothing to hold for.
func Exercised(spans []span.Span) (data, publishes int) {
	path := paths(spans)
	first := math.Inf(1)
	for _, s := range spans {
		if s.Phase == span.PFSWrite && path(s) != "" {
			data++
			first = min(first, s.Start)
		}
	}
	for _, s := range spans {
		if s.Phase == span.PFSWrite && path(s) == "" && s.Start >= first {
			publishes++
		}
	}
	return data, publishes
}

// paths returns the data path a span was recorded under: coll_write or
// indep_write when its parent is one, "" otherwise.
func paths(spans []span.Span) func(span.Span) string {
	type key struct {
		rank int
		id   int64
	}
	phase := map[key]string{}
	for _, s := range spans {
		phase[key{s.Rank, s.ID}] = s.Phase
	}
	return func(s span.Span) string {
		switch p := phase[key{s.Rank, s.Parent}]; p {
		case span.CollWrite, span.IndepWrite:
			return p
		}
		return ""
	}
}
