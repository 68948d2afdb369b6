package span_test

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"pnetcdf/internal/span"
)

func sampleSpans() []span.Span {
	return []span.Span{
		{ID: 1, Parent: 0, Rank: 0, Phase: span.CollWrite, Round: -1, Bytes: 1 << 20, Off: -1, Start: 0, End: 0.25},
		{ID: 2, Parent: 1, Rank: 0, Phase: span.Round, Round: 0, Bytes: 65536, Off: -1, Start: 0.01, End: 0.12},
		{ID: 1, Parent: 0, Rank: 1, Phase: span.CollWrite, Round: -1, Bytes: 1 << 20, Off: -1, Start: 0.001, End: 0.26},
		// Zero duration: CPU work is free in virtual time, so these are
		// common; the X event must still carry an explicit dur.
		{ID: 3, Parent: 2, Rank: 0, Phase: span.Encode, Round: -1, Bytes: 16, Off: -1, Start: 0.01, End: 0.01},
	}
}

// TestChromeTraceValid verifies the emitted file is valid Chrome
// trace-event JSON as Perfetto expects it: a JSON object with a
// traceEvents array whose entries carry name/ph/ts/pid/tid, complete
// events use ph "X" with a dur, and timestamps are microseconds.
func TestChromeTraceValid(t *testing.T) {
	var buf bytes.Buffer
	if err := span.WriteChromeTrace(&buf, sampleSpans(), 0); err != nil {
		t.Fatal(err)
	}
	var generic struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Display     string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &generic); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	if generic.Display != "ms" {
		t.Fatalf("displayTimeUnit = %q", generic.Display)
	}
	var complete, meta int
	for _, ev := range generic.TraceEvents {
		for _, k := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[k]; !ok {
				t.Fatalf("event missing %q: %v", k, ev)
			}
		}
		switch ev["ph"] {
		case "X":
			complete++
			if _, ok := ev["dur"].(float64); !ok {
				t.Fatalf("complete event missing dur: %v", ev)
			}
		case "M":
			meta++
		default:
			t.Fatalf("unexpected phase %v", ev["ph"])
		}
	}
	if complete != 4 {
		t.Fatalf("complete events = %d, want 4", complete)
	}
	if meta != 2 { // one process_name per rank
		t.Fatalf("metadata events = %d, want 2", meta)
	}
	// Microseconds: the first span ends at 0.25s = 250000µs.
	if !strings.Contains(buf.String(), "250000") {
		t.Fatalf("timestamps not in microseconds:\n%s", buf.String())
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	// File requests carry their first offset; offset 0 must survive the
	// trip as 0, not come back as "no offset" (-1).
	in := append(sampleSpans(),
		span.Span{ID: 4, Parent: 2, Rank: 0, Phase: span.PFSWrite, Round: -1, Bytes: 4096, Off: 0, Start: 0.05, End: 0.06},
		span.Span{ID: 2, Parent: 1, Rank: 1, Phase: span.PFSRead, Round: -1, Bytes: 512, Off: 1 << 20, Start: 0.1, End: 0.11},
		span.Span{ID: 3, Parent: 1, Rank: 1, Phase: span.Agree, Round: 0, Off: -1, Start: 0.11, End: 0.2},
	)
	var buf bytes.Buffer
	if err := span.WriteChromeTrace(&buf, in, 7); err != nil {
		t.Fatal(err)
	}
	out, dropped, err := span.ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 7 {
		t.Fatalf("dropped = %d, want 7", dropped)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d spans, want %d", len(out), len(in))
	}
	for i := range in {
		a, b := in[i], out[i]
		if a.ID != b.ID || a.Parent != b.Parent || a.Rank != b.Rank ||
			a.Phase != b.Phase || a.Round != b.Round || a.Bytes != b.Bytes || a.Off != b.Off {
			t.Fatalf("span %d fields changed: %+v -> %+v", i, a, b)
		}
		if math.Abs(a.Start-b.Start) > 1e-9 || math.Abs(a.End-b.End) > 1e-9 {
			t.Fatalf("span %d times drifted: [%v,%v] -> [%v,%v]", i, a.Start, a.End, b.Start, b.End)
		}
	}
}

func TestChromeTraceReadRejectsGarbage(t *testing.T) {
	if _, _, err := span.ReadChromeTrace(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage parsed without error")
	}
}

func TestChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := span.WriteChromeTrace(&buf, nil, 0); err != nil {
		t.Fatal(err)
	}
	out, dropped, err := span.ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || dropped != 0 {
		t.Fatalf("empty trace round-tripped to %d spans / %d dropped", len(out), dropped)
	}
}
