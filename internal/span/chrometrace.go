package span

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace-event JSON (the chrome://tracing / Perfetto "JSON object
// format"): a traceEvents array of complete ("ph":"X") events with
// microsecond timestamps, pid/tid carrying the rank, and span identity in
// args so ReadChromeTrace can reconstruct the hierarchy. The top-level
// pnetcdfDropped field carries the cross-rank drop count — nonzero means
// the trace is incomplete (satellite: never read a truncated trace as
// complete).

type chromeEvent struct {
	Name string      `json:"name"`
	Cat  string      `json:"cat,omitempty"`
	Ph   string      `json:"ph"`
	TS   float64     `json:"ts"`
	Dur  *float64    `json:"dur,omitempty"` // set on every X event (0 must still serialize); nil for M events
	PID  int         `json:"pid"`
	TID  int         `json:"tid"`
	Args *chromeArgs `json:"args,omitempty"`
}

type chromeArgs struct {
	ID     int64  `json:"id,omitempty"`
	Parent int64  `json:"parent,omitempty"`
	Round  *int64 `json:"round,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	Off    *int64 `json:"off,omitempty"`  // a pointer, as Round: offset 0 must still serialize
	Name   string `json:"name,omitempty"` // metadata events only
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	Dropped         int64         `json:"pnetcdfDropped"`
}

// WriteChromeTrace writes merged spans as Chrome trace-event JSON,
// loadable in Perfetto / chrome://tracing. One process_name metadata event
// per rank labels the timeline rows.
func WriteChromeTrace(w io.Writer, spans []Span, dropped int64) error {
	cf := chromeFile{DisplayTimeUnit: "ms", Dropped: dropped}
	ranks := make(map[int]bool)
	for i := range spans {
		s := &spans[i]
		ranks[s.Rank] = true
		args := &chromeArgs{ID: s.ID, Parent: s.Parent, Bytes: s.Bytes}
		if s.Round >= 0 {
			r := s.Round
			args.Round = &r
		}
		if s.Off >= 0 {
			off := s.Off
			args.Off = &off
		}
		dur := s.Dur() * 1e6
		cf.TraceEvents = append(cf.TraceEvents, chromeEvent{
			Name: s.Phase, Cat: "pnetcdf", Ph: "X",
			TS: s.Start * 1e6, Dur: &dur,
			PID: s.Rank, TID: s.Rank, Args: args,
		})
	}
	rankList := make([]int, 0, len(ranks))
	for r := range ranks {
		rankList = append(rankList, r)
	}
	sort.Ints(rankList)
	for _, r := range rankList {
		cf.TraceEvents = append(cf.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", PID: r, TID: r,
			Args: &chromeArgs{Name: fmt.Sprintf("rank %d", r)},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&cf)
}

// ReadChromeTrace parses a trace written by WriteChromeTrace (metadata
// events are skipped) and returns the spans plus the recorded drop count.
func ReadChromeTrace(r io.Reader) ([]Span, int64, error) {
	var cf chromeFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&cf); err != nil {
		return nil, 0, fmt.Errorf("span: parse chrome trace: %w", err)
	}
	var spans []Span
	for _, ev := range cf.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		var dur float64
		if ev.Dur != nil {
			dur = *ev.Dur
		}
		s := Span{
			Phase: ev.Name, Rank: ev.PID, Round: -1, Off: -1,
			Start: ev.TS / 1e6, End: (ev.TS + dur) / 1e6,
		}
		if ev.Args != nil {
			s.ID, s.Parent, s.Bytes = ev.Args.ID, ev.Args.Parent, ev.Args.Bytes
			if ev.Args.Round != nil {
				s.Round = *ev.Args.Round
			}
			if ev.Args.Off != nil {
				s.Off = *ev.Args.Off
			}
		}
		spans = append(spans, s)
	}
	return spans, cf.Dropped, nil
}
