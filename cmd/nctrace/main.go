// Command nctrace analyzes the span file the benchmarks write (the
// -span-out flag: Chrome trace-event JSON, see internal/span; the same file
// loads in Perfetto).
//
//	nctrace summary spans.json     # per-phase table, request sizes, per-rank I/O
//	nctrace timeline spans.json    # per-rank span tree
//	nctrace critical spans.json    # which rank+phase bounded each round
//	nctrace imbalance spans.json   # per-phase rank load spread
//
// The summary's request-size histogram, per-rank rows and per-server load
// come from the pfs_read/pfs_write spans, one per file-system request. A
// span file holds the last run of a sweep and only its measured phase: the
// benches reset the recorders after setup, so setup I/O (such as the write a
// read run first makes) is not in it.
//
// Usage:
//
//	nctrace -servers 12 -stripe 262144 summary spans.json  # add per-server load
//	nctrace -rank 3 timeline spans.json                    # one rank's span tree
//	nctrace -buckets 8 imbalance spans.json                # histogram resolution
package main

import (
	"flag"
	"fmt"
	"io"
	"math/bits"
	"os"
	"sort"

	"pnetcdf/internal/cmdutil"
	"pnetcdf/internal/span"
)

const tool = "nctrace"

var (
	servers = flag.Int("servers", 0, "summary: I/O server count for per-server load (0 = skip)")
	stripe  = flag.Int64("stripe", 256<<10, "summary: stripe size in bytes for per-server load")
	rank    = flag.Int("rank", -1, "timeline: restrict to one rank (-1 = all)")
	buckets = flag.Int("buckets", 6, "imbalance: histogram bucket count")
)

const usage = "usage: nctrace [flags] {summary|timeline|critical|imbalance} spans.json\n" +
	"  spans.json is a bench's -span-out file: the last run's measured phase, without setup I/O"

// commands maps each subcommand to its analysis.
var commands = map[string]func(io.Writer, []span.Span){
	"summary":   func(w io.Writer, s []span.Span) { summary(w, s, *servers, *stripe) },
	"timeline":  func(w io.Writer, s []span.Span) { spanTimeline(w, s, *rank) },
	"critical":  spanCritical,
	"imbalance": func(w io.Writer, s []span.Span) { spanImbalance(w, s, *buckets) },
}

func main() {
	flag.Parse()
	if *stripe < 1 {
		cmdutil.Usagef("nctrace: -stripe must be positive")
	}
	args := flag.Args()
	if len(args) != 2 || commands[args[0]] == nil {
		cmdutil.Usagef(usage)
	}
	spans, dropped := readSpans(args[1])
	warnSpanDropped(dropped)
	commands[args[0]](os.Stdout, spans)
}

// readSpans loads a Chrome trace-event span file (-span-out output).
func readSpans(path string) ([]span.Span, int64) {
	f, err := os.Open(path)
	cmdutil.Fatal(tool, err)
	spans, dropped, err := span.ReadChromeTrace(f)
	cmdutil.Fatal(tool, err)
	cmdutil.Fatal(tool, f.Close())
	return spans, dropped
}

func warnSpanDropped(dropped int64) {
	if dropped > 0 {
		fmt.Fprintf(os.Stderr, "%s: WARNING: the span recorders dropped %d spans (a rank keeps at most %d) — this trace is INCOMPLETE; trace a smaller run\n",
			tool, dropped, span.DefaultCap)
	}
}

// summary prints the per-phase table and, over the file-system requests,
// the size histogram, the per-rank rows and (nservers > 0) the per-server
// load.
func summary(w io.Writer, spans []span.Span, nservers int, stripeSize int64) {
	if len(spans) == 0 {
		fmt.Fprintln(w, "no spans")
		return
	}
	fmt.Fprintf(w, "%d spans\n\n", len(spans))
	opTable(w, spans)
	reqs := fileRequests(spans)
	sizeHistogram(w, reqs)
	rankTimeline(w, reqs)
	if nservers > 0 {
		serverLoad(w, reqs, nservers, stripeSize)
	}
}

// fileRequests returns the pfs_read/pfs_write spans: one per request batch
// the file system served or failed.
func fileRequests(spans []span.Span) []span.Span {
	var out []span.Span
	for _, s := range spans {
		if s.Phase == span.PFSRead || s.Phase == span.PFSWrite {
			out = append(out, s)
		}
	}
	return out
}

// spanTimeline prints each rank's span tree in start order, indented by
// nesting depth — the textual form of what Perfetto draws.
func spanTimeline(w io.Writer, spans []span.Span, only int) {
	if len(spans) == 0 {
		fmt.Fprintln(w, "no spans")
		return
	}
	byRank := map[int][]span.Span{}
	for _, s := range spans {
		byRank[s.Rank] = append(byRank[s.Rank], s)
	}
	ranks := make([]int, 0, len(byRank))
	for r := range byRank {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		if only >= 0 && r != only {
			continue
		}
		rs := byRank[r]
		depth := map[int64]int{}
		byID := map[int64]span.Span{}
		for _, s := range rs {
			byID[s.ID] = s
		}
		var depthOf func(id int64) int
		depthOf = func(id int64) int {
			if d, ok := depth[id]; ok {
				return d
			}
			s := byID[id]
			d := 0
			if s.Parent != 0 {
				if _, ok := byID[s.Parent]; ok {
					d = depthOf(s.Parent) + 1
				}
			}
			depth[id] = d
			return d
		}
		sort.Slice(rs, func(i, j int) bool {
			if rs[i].Start != rs[j].Start {
				return rs[i].Start < rs[j].Start
			}
			return rs[i].ID < rs[j].ID
		})
		fmt.Fprintf(w, "rank %d (%d spans)\n", r, len(rs))
		for _, s := range rs {
			pad := ""
			for i := 0; i < depthOf(s.ID); i++ {
				pad += "  "
			}
			extra := ""
			if s.Round >= 0 {
				extra += fmt.Sprintf(" round=%d", s.Round)
			}
			if s.Bytes > 0 {
				extra += fmt.Sprintf(" bytes=%d", s.Bytes)
			}
			fmt.Fprintf(w, "  %12.6f %10.6f  %s%s%s\n", s.Start, s.Dur(), pad, s.Phase, extra)
		}
		fmt.Fprintln(w)
	}
}

// spanCritical prints the per-round critical path: which rank, doing what,
// set the pace of each two-phase round.
func spanCritical(w io.Writer, spans []span.Span) {
	rounds := span.CriticalPath(spans)
	if len(rounds) == 0 {
		fmt.Fprintln(w, "no collective rounds in trace")
		return
	}
	fmt.Fprintf(w, "critical path (%d rounds)\n", len(rounds))
	fmt.Fprintf(w, "  %4s %5s   %-10s %4s %12s %12s %8s\n",
		"coll", "round", "phase", "rank", "work(s)", "mean(s)", "spread")
	for _, rc := range rounds {
		fmt.Fprintf(w, "  %4d %5d   %-10s %4d %12.6f %12.6f %7.2fx\n",
			rc.Coll, rc.Round, rc.Phase, rc.Rank, rc.Work, rc.Mean, rc.Spread())
	}
	fmt.Fprintln(w)
	counts := span.BoundCounts(rounds)
	ranks := make([]int, 0, len(counts))
	for r := range counts {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	fmt.Fprintln(w, "rounds bounded per rank (the straggler census)")
	for _, r := range ranks {
		fmt.Fprintf(w, "  rank %3d  %4d/%d %s\n", r, counts[r], len(rounds), barString(40*counts[r]/len(rounds)))
	}
}

// spanImbalance prints per-phase rank load: who spent how long in each
// phase, the max/mean imbalance factor, and a load histogram.
func spanImbalance(w io.Writer, spans []span.Span, nbuckets int) {
	if nbuckets < 1 {
		nbuckets = 1
	}
	loads := span.AllLoads(spans)
	if len(loads) == 0 {
		fmt.Fprintln(w, "no spans")
		return
	}
	fmt.Fprintln(w, "per-phase rank load (seconds in phase, most imbalanced first)")
	for _, l := range loads {
		fmt.Fprintf(w, "\n  %-12s calls=%d bytes=%d busy=%d/%d\n", l.Phase, l.Calls, l.Bytes, l.Busy(), len(l.PerRank))
		fmt.Fprintf(w, "    min=%.6f mean=%.6f max=%.6f (rank %d)  imbalance=%.3fx",
			l.Min, l.Mean, l.Max, l.MaxRank, l.Imbalance())
		if bi := l.ByteImbalance(); bi > 0 {
			fmt.Fprintf(w, "  byte-imbalance=%.3fx", bi)
		}
		fmt.Fprintln(w)
		counts, labels := l.Histogram(nbuckets)
		maxC := 0
		for _, c := range counts {
			if c > maxC {
				maxC = c
			}
		}
		if maxC == 0 {
			continue
		}
		for i, c := range counts {
			fmt.Fprintf(w, "    %-24s %4d %s\n", labels[i], c, barString(30*c/maxC))
		}
	}
}

// opTable prints one row per phase: calls, bytes, mean size and the summed
// duration. Nested phases each count their own time, so the times of a
// parent and its children overlap.
func opTable(w io.Writer, spans []span.Span) {
	type agg struct {
		calls, bytes int64
		time         float64
	}
	m := map[string]*agg{}
	for _, s := range spans {
		a := m[s.Phase]
		if a == nil {
			a = &agg{}
			m[s.Phase] = a
		}
		a.calls++
		a.bytes += s.Bytes
		a.time += s.Dur()
	}
	phases := make([]string, 0, len(m))
	for p := range m {
		phases = append(phases, p)
	}
	sort.Strings(phases)
	fmt.Fprintf(w, "%-14s %8s %14s %12s %12s\n", "phase", "calls", "bytes", "avg-size", "time(s)")
	for _, p := range phases {
		a := m[p]
		fmt.Fprintf(w, "%-14s %8d %14d %12d %12.4f\n", p, a.calls, a.bytes, a.bytes/a.calls, a.time)
	}
	fmt.Fprintln(w)
}

// sizeHistogram prints the power-of-two size distribution of the
// file-system requests, the quantity Thakur et al. correlate with MPI-IO
// performance.
func sizeHistogram(w io.Writer, reqs []span.Span) {
	var buckets [64]int64
	maxCount := int64(0)
	for _, s := range reqs {
		if s.Bytes <= 0 {
			continue
		}
		b := bits.Len64(uint64(s.Bytes) - 1)
		buckets[b]++
		maxCount = max(maxCount, buckets[b])
	}
	if maxCount == 0 {
		return
	}
	fmt.Fprintln(w, "request sizes (pfs_read + pfs_write)")
	for i, c := range buckets {
		if c == 0 {
			continue
		}
		fmt.Fprintf(w, "  <=%10s %8d %s\n", humanSize(int64(1)<<i), c, barString(int(40*c/maxCount)))
	}
	fmt.Fprintln(w)
}

func barString(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '#'
	}
	return string(b)
}

func humanSize(b int64) string {
	switch {
	case b < 1<<10:
		return fmt.Sprintf("%dB", b)
	case b < 1<<20:
		return fmt.Sprintf("%dKiB", b>>10)
	case b < 1<<30:
		return fmt.Sprintf("%dMiB", b>>20)
	default:
		return fmt.Sprintf("%dGiB", b>>30)
	}
}

// rankTimeline prints one row per rank of its file-system requests: count,
// bytes, busy time and the [first-start, last-end] interval on the rank's
// virtual clock.
func rankTimeline(w io.Writer, reqs []span.Span) {
	if len(reqs) == 0 {
		return
	}
	type agg struct {
		reqs, bytes int64
		busy        float64
		first, last float64
	}
	m := map[int]*agg{}
	for _, s := range reqs {
		a := m[s.Rank]
		if a == nil {
			a = &agg{first: s.Start, last: s.End}
			m[s.Rank] = a
		}
		a.reqs++
		a.bytes += s.Bytes
		a.busy += s.Dur()
		a.first = min(a.first, s.Start)
		a.last = max(a.last, s.End)
	}
	ranks := make([]int, 0, len(m))
	for r := range m {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	fmt.Fprintln(w, "per-rank file-system requests (virtual seconds)")
	fmt.Fprintf(w, "  %6s %8s %14s %10s %10s %10s\n", "rank", "requests", "bytes", "first", "last", "busy")
	for _, r := range ranks {
		a := m[r]
		fmt.Fprintf(w, "  %6d %8d %14d %10.4f %10.4f %10.4f\n", r, a.reqs, a.bytes, a.first, a.last, a.busy)
	}
	fmt.Fprintln(w)
}

// serverBytes maps the requests' bytes to striped servers. A request is
// walked stripe by stripe from its first offset as if contiguous, which is
// exact for the single-extent requests that carry most of the bytes and
// approximate for a vectored one.
func serverBytes(reqs []span.Span, nservers int, stripeSize int64) []int64 {
	load := make([]int64, nservers)
	for _, s := range reqs {
		if s.Bytes <= 0 || s.Off < 0 {
			continue
		}
		off, n := s.Off, s.Bytes
		for n > 0 {
			k := min(stripeSize-off%stripeSize, n)
			load[(off/stripeSize)%int64(nservers)] += k
			off += k
			n -= k
		}
	}
	return load
}

// serverLoad prints the per-server bytes and the imbalance (max/mean) — the
// quantity that caps aggregate bandwidth when the access pattern favors a
// subset of the servers.
func serverLoad(w io.Writer, reqs []span.Span, nservers int, stripeSize int64) {
	load := serverBytes(reqs, nservers, stripeSize)
	var sum, most int64
	for _, b := range load {
		sum += b
		most = max(most, b)
	}
	if sum == 0 {
		return
	}
	fmt.Fprintf(w, "per-server load (%d servers, %s stripe)\n", nservers, humanSize(stripeSize))
	for s, b := range load {
		fmt.Fprintf(w, "  server %2d %14d (%.1f%%)\n", s, b, 100*float64(b)/float64(sum))
	}
	fmt.Fprintf(w, "  imbalance max/mean = %.3f\n", float64(most)/(float64(sum)/float64(nservers)))
}
