// Command nctrace inspects the two trace artifacts the benchmarks emit.
//
// Given a JSON-lines I/O event trace (the -trace flag, see internal/iostat)
// it prints per-layer operation counts, a request-size histogram, the
// per-rank timeline, and — given the file system geometry — the per-server
// load split that explains flattening bandwidth curves.
//
// Given a Chrome trace-event span file (the -span-out flag, see
// internal/span; the same file loads in Perfetto), the subcommands analyze
// the collective pipeline:
//
//	nctrace timeline spans.json    # per-rank span tree
//	nctrace critical spans.json    # which rank+phase bounded each round
//	nctrace imbalance spans.json   # per-phase rank load spread
//
// Usage:
//
//	nctrace trace.jsonl                      # event-trace summary
//	nctrace -servers 12 -stripe 262144 t.jsonl   # add per-server load
//	nctrace -layer pfs t.jsonl              # restrict to one layer
//	nctrace -rank 3 timeline spans.json     # one rank's span tree
//	nctrace -buckets 8 imbalance spans.json # histogram resolution
package main

import (
	"flag"
	"fmt"
	"math"
	"math/bits"
	"os"
	"sort"

	"pnetcdf/internal/cmdutil"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/span"
)

const tool = "nctrace"

var (
	servers = flag.Int("servers", 0, "I/O server count for per-server load (0 = skip)")
	stripe  = flag.Int64("stripe", 256<<10, "stripe size in bytes for per-server load")
	layer   = flag.String("layer", "", "restrict the summary to one layer (pfs, mpiio, pnetcdf)")
	rank    = flag.Int("rank", -1, "timeline: restrict to one rank (-1 = all)")
	buckets = flag.Int("buckets", 6, "imbalance: histogram bucket count")
)

const usage = "usage: nctrace [flags] trace.jsonl\n" +
	"       nctrace [flags] {timeline|critical|imbalance} spans.json"

func main() {
	flag.Parse()
	if *stripe < 1 {
		cmdutil.Usagef("nctrace: -stripe must be positive")
	}
	args := flag.Args()
	if len(args) == 2 {
		switch args[0] {
		case "timeline", "critical", "imbalance":
			spans, dropped := readSpans(args[1])
			warnSpanDropped(dropped)
			switch args[0] {
			case "timeline":
				spanTimeline(spans, *rank)
			case "critical":
				spanCritical(spans)
			case "imbalance":
				spanImbalance(spans, *buckets)
			}
			return
		}
	}
	if len(args) != 1 {
		cmdutil.Usagef(usage)
	}
	f, err := os.Open(args[0])
	cmdutil.Fatal(tool, err)
	events, err := iostat.ReadJSONL(f)
	cmdutil.Fatal(tool, err)
	cmdutil.Fatal(tool, f.Close())
	events, dropped := iostat.SplitMeta(events)
	if dropped > 0 {
		fmt.Fprintf(os.Stderr, "%s: WARNING: the trace ring overwrote %d events — this trace is INCOMPLETE\n", tool, dropped)
	}
	if *layer != "" {
		kept := events[:0]
		for _, e := range events {
			if e.Layer == *layer {
				kept = append(kept, e)
			}
		}
		events = kept
	}
	if len(events) == 0 {
		fmt.Println("no events")
		return
	}
	fmt.Printf("%d events\n\n", len(events))
	opTable(events)
	sizeHistogram(events)
	rankTimeline(events)
	if *servers > 0 {
		serverLoad(events, *servers, *stripe)
	}
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
		fmt.Fprintf(os.Stderr, "%s: WARNING: the span recorder dropped %d spans — this trace is INCOMPLETE; raise the span capacity or sample\n", tool, dropped)
	}
}

// spanTimeline prints each rank's span tree in start order, indented by
// nesting depth — the textual form of what Perfetto draws.
func spanTimeline(spans []span.Span, only int) {
	if len(spans) == 0 {
		fmt.Println("no spans")
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
		fmt.Printf("rank %d (%d spans)\n", r, len(rs))
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
			fmt.Printf("  %12.6f %10.6f  %s%s%s\n", s.Start, s.Dur(), pad, s.Phase, extra)
		}
		fmt.Println()
	}
}

// spanCritical prints the per-round critical path: which rank, doing what,
// set the pace of each two-phase round.
func spanCritical(spans []span.Span) {
	rounds := span.CriticalPath(spans)
	if len(rounds) == 0 {
		fmt.Println("no collective rounds in trace")
		return
	}
	fmt.Printf("critical path (%d rounds)\n", len(rounds))
	fmt.Printf("  %4s %5s   %-10s %4s %12s %12s %8s\n",
		"coll", "round", "phase", "rank", "work(s)", "mean(s)", "spread")
	for _, rc := range rounds {
		fmt.Printf("  %4d %5d   %-10s %4d %12.6f %12.6f %7.2fx\n",
			rc.Coll, rc.Round, rc.Phase, rc.Rank, rc.Work, rc.Mean, rc.Spread())
	}
	fmt.Println()
	counts := span.BoundCounts(rounds)
	ranks := make([]int, 0, len(counts))
	for r := range counts {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	fmt.Println("rounds bounded per rank (the straggler census)")
	for _, r := range ranks {
		fmt.Printf("  rank %3d  %4d/%d %s\n", r, counts[r], len(rounds), barString(40*counts[r]/len(rounds)))
	}
}

// spanImbalance prints per-phase rank load: who spent how long in each
// phase, the max/mean imbalance factor, and a load histogram.
func spanImbalance(spans []span.Span, nbuckets int) {
	if nbuckets < 1 {
		nbuckets = 1
	}
	loads := span.AllLoads(spans)
	if len(loads) == 0 {
		fmt.Println("no spans")
		return
	}
	fmt.Println("per-phase rank load (seconds in phase, most imbalanced first)")
	for _, l := range loads {
		fmt.Printf("\n  %-12s calls=%d bytes=%d busy=%d/%d\n", l.Phase, l.Calls, l.Bytes, l.Busy(), len(l.PerRank))
		fmt.Printf("    min=%.6f mean=%.6f max=%.6f (rank %d)  imbalance=%.3fx",
			l.Min, l.Mean, l.Max, l.MaxRank, l.Imbalance())
		if bi := l.ByteImbalance(); bi > 0 {
			fmt.Printf("  byte-imbalance=%.3fx", bi)
		}
		fmt.Println()
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
			fmt.Printf("    %-24s %4d %s\n", labels[i], c, barString(30*c/maxC))
		}
	}
}

// opTable prints per (layer, op) counts, bytes and extent totals.
func opTable(events []iostat.Event) {
	type key struct{ layer, op string }
	type agg struct {
		calls, bytes, extents int64
		time                  float64
	}
	m := map[key]*agg{}
	for _, e := range events {
		k := key{e.Layer, e.Op}
		a := m[k]
		if a == nil {
			a = &agg{}
			m[k] = a
		}
		a.calls++
		a.bytes += e.Len
		a.extents += int64(e.Extents)
		a.time += e.End - e.Start
	}
	keys := make([]key, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].layer != keys[j].layer {
			return keys[i].layer < keys[j].layer
		}
		return keys[i].op < keys[j].op
	})
	fmt.Printf("%-8s %-12s %8s %14s %12s %10s %12s\n",
		"layer", "op", "calls", "bytes", "avg-size", "extents", "time(s)")
	for _, k := range keys {
		a := m[k]
		avg := int64(0)
		if a.calls > 0 {
			avg = a.bytes / a.calls
		}
		fmt.Printf("%-8s %-12s %8d %14d %12d %10d %12.4f\n",
			k.layer, k.op, a.calls, a.bytes, avg, a.extents, a.time)
	}
	fmt.Println()
}

// sizeHistogram prints the power-of-two request-size distribution of the
// lowest traced layer present (pfs when available), the quantity Thakur et
// al. correlate with MPI-IO performance.
func sizeHistogram(events []iostat.Event) {
	histLayer := "pfs"
	found := false
	for _, e := range events {
		if e.Layer == histLayer {
			found = true
			break
		}
	}
	if !found {
		histLayer = events[0].Layer
	}
	var buckets [64]int64
	total := 0
	for _, e := range events {
		if e.Layer != histLayer || e.Len <= 0 {
			continue
		}
		buckets[bits.Len64(uint64(e.Len)-1)]++
		total++
	}
	if total == 0 {
		return
	}
	fmt.Printf("request sizes (%s layer)\n", histLayer)
	maxCount := int64(0)
	for _, c := range buckets {
		if c > maxCount {
			maxCount = c
		}
	}
	for i, c := range buckets {
		if c == 0 {
			continue
		}
		bar := int(40 * c / maxCount)
		fmt.Printf("  <=%10s %8d %s\n", humanSize(int64(1)<<i), c, barString(bar))
	}
	fmt.Println()
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

// rankTimeline prints one row per rank: event count, bytes, busy time and
// the [first-start, last-end] span on the virtual clock.
func rankTimeline(events []iostat.Event) {
	type agg struct {
		events, bytes int64
		busy          float64
		first, last   float64
		seen          bool
	}
	m := map[int]*agg{}
	for _, e := range events {
		a := m[e.Rank]
		if a == nil {
			a = &agg{}
			m[e.Rank] = a
		}
		a.events++
		a.bytes += e.Len
		a.busy += e.End - e.Start
		if !a.seen || e.Start < a.first {
			a.first = e.Start
		}
		if !a.seen || e.End > a.last {
			a.last = e.End
		}
		a.seen = true
	}
	ranks := make([]int, 0, len(m))
	for r := range m {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	fmt.Printf("per-rank timeline (virtual seconds)\n")
	fmt.Printf("  %6s %8s %14s %10s %10s %10s\n", "rank", "events", "bytes", "first", "last", "busy")
	for _, r := range ranks {
		a := m[r]
		fmt.Printf("  %6d %8d %14d %10.4f %10.4f %10.4f\n",
			r, a.events, a.bytes, a.first, a.last, a.busy)
	}
	fmt.Println()
}

// serverLoad maps pfs request bytes to striped servers and reports the
// imbalance (max/mean) — the quantity that caps aggregate bandwidth when
// the access pattern favors a subset of the servers.
func serverLoad(events []iostat.Event, nservers int, stripeSize int64) {
	load := make([]int64, nservers)
	for _, e := range events {
		if e.Layer != "pfs" || e.Len <= 0 || e.Off < 0 {
			continue
		}
		// Walk the request stripe by stripe. Contiguity within the event is
		// assumed (extents are not in the dump), which is exact for the
		// merged requests the pfs layer issues.
		off, n := e.Off, e.Len
		for n > 0 {
			srv := (off / stripeSize) % int64(nservers)
			k := stripeSize - off%stripeSize
			if k > n {
				k = n
			}
			load[srv] += k
			off += k
			n -= k
		}
	}
	var sum, max int64
	for _, b := range load {
		sum += b
		if b > max {
			max = b
		}
	}
	if sum == 0 {
		return
	}
	mean := float64(sum) / float64(nservers)
	fmt.Printf("per-server load (%d servers, %s stripe)\n", nservers, humanSize(stripeSize))
	for s, b := range load {
		fmt.Printf("  server %2d %14d (%.1f%%)\n", s, b, 100*float64(b)/float64(sum))
	}
	imb := math.Inf(1)
	if mean > 0 {
		imb = float64(max) / mean
	}
	fmt.Printf("  imbalance max/mean = %.3f\n", imb)
}
