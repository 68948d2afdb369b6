package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Wall-clock spans, recorded from the benchmark's own files around the calls
// into a layer (spans inside the library are a later change). They live in
// memory and are written out once, when the run ends.

// Span names: the driver's calls into core, by kind. Define-mode and inquiry
// calls take well under a microsecond each, so one span covers the whole
// batch of them; every other call gets its own span.
const (
	spanOpen   = "open"   // core.Create, core.Open
	spanDefine = "define" // DefDim, DefVar, PutAttr in define mode
	spanEndDef = "enddef" // EndDef
	spanPut    = "put"    // PutVaraAll, PutVaraTypeAll
	spanGet    = "get"    // GetVaraAll, GetVaraTypeAll
	spanSync   = "sync"   // Sync
	spanClose  = "close"  // Close
	spanInq    = "inq"    // VarID, InqVar
	spanWrite  = "write"  // mpiio.WriteAtAll (replay probe)
	spanRead   = "read"   // mpiio.ReadAtAll (replay probe)
)

// hostSpan is one closed wall-clock interval. Spans of one operation share
// Op; Parent is the operation's own span (rank -1), 0 for that span itself.
type hostSpan struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Rank   int    `json:"rank"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

// rankSpans collects one rank's spans for one operation without locking: a
// rank is one goroutine. A nil *rankSpans is tracing off; both methods
// return at once without reading the clock.
type rankSpans struct {
	epoch time.Time
	spans []hostSpan
}

func (r *rankSpans) begin() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

func (r *rankSpans) end(name string, start int64) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, hostSpan{Name: name, Start: start, End: int64(time.Since(r.epoch))})
}

// do runs one call, or one batch of calls, into a layer under a span. The
// closure does not outlive the call, so it costs no allocation.
func (r *rankSpans) do(name string, call func() error) error {
	t := r.begin()
	err := call()
	r.end(name, t)
	return err
}

// maxHostSpans bounds the trace; spans past it are counted as dropped.
const maxHostSpans = 1 << 20

// hostTrace is the run's span store. A nil *hostTrace is tracing off.
type hostTrace struct {
	epoch   time.Time
	ranks   []*rankSpans
	spans   []hostSpan
	ops     int
	dropped int
}

func newHostTrace(nranks int) *hostTrace {
	h := &hostTrace{epoch: time.Now(), ranks: make([]*rankSpans, nranks)}
	for i := range h.ranks {
		h.ranks[i] = &rankSpans{epoch: h.epoch}
	}
	return h
}

// rank returns rank r's collector (nil when tracing is off).
func (h *hostTrace) rank(r int) *rankSpans {
	if h == nil {
		return nil
	}
	return h.ranks[r]
}

// now is the trace clock.
func (h *hostTrace) now() int64 { return int64(time.Since(h.epoch)) }

// commit closes one operation that ran over [start, end): it files the
// operation's own span and every rank's spans under it, and returns for each
// span name the mean over ranks of the time a rank spent inside it.
func (h *hostTrace) commit(layer string, start, end int64) map[string]time.Duration {
	h.ops++
	op := h.add(hostSpan{Op: h.ops, Rank: -1, Layer: "benchmark", Name: "op", Start: start, End: end})
	per := map[string]time.Duration{}
	for r, rs := range h.ranks {
		for _, s := range rs.spans {
			s.Parent, s.Op, s.Rank, s.Layer = op, h.ops, r, layer
			h.add(s)
			per[s.Name] += time.Duration(s.End - s.Start)
		}
		rs.spans = rs.spans[:0]
	}
	for name := range per {
		per[name] /= time.Duration(len(h.ranks))
	}
	return per
}

func (h *hostTrace) add(s hostSpan) int {
	if len(h.spans) >= maxHostSpans {
		h.dropped++
		return 0
	}
	s.ID = len(h.spans) + 1
	h.spans = append(h.spans, s)
	return s.ID
}

// write stores the trace as benchmark/out/<workload>.trace.json.
func (h *hostTrace) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(struct {
		Workload string     `json:"workload"`
		Dropped  int        `json:"dropped"`
		Spans    []hostSpan `json:"spans"`
	}{workload, h.dropped, h.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), blob, 0o644)
}
