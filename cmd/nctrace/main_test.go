package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pnetcdf/internal/span"
)

type manualClock struct{ t float64 }

func (c *manualClock) now() float64 { return c.t }

// rankSpans records one rank's share of a small run: a one-round collective
// write whose aggregator request starts at off and crosses a stripe
// boundary, then an independent read of the first 4 KiB, tried twice, and
// the close's drain of the write.
func rankSpans(rank int, off int64) []span.Span {
	clk := &manualClock{}
	r := span.NewRecorder(rank, clk.now)
	put := r.Begin(span.NCPut)
	coll := r.Begin(span.CollWrite)
	coll.SetBytes(300 << 10)
	round := r.Begin(span.Round)
	round.SetRound(0)
	pack := r.Begin(span.Pack)
	clk.t += 0.001
	pack.End()
	agree := r.Begin(span.Agree)
	clk.t += 0.002
	agree.End()
	xchg := r.Begin(span.Exchange)
	clk.t += 0.001 * float64(rank+1)
	xchg.End()
	r.Record(span.PFSWrite, -1, clk.t, clk.t+0.01, 300<<10, off)
	clk.t += 0.01
	round.End()
	coll.End()
	put.End()
	read := r.Begin(span.IndepRead)
	read.SetBytes(4096)
	r.Record(span.PFSRead, -1, clk.t, clk.t+0.001, 0, 0) // a failed attempt moves nothing
	r.Record(span.PFSRead, -1, clk.t+0.001, clk.t+0.002, 4096, 0)
	clk.t += 0.002
	read.End()
	r.Record(span.Drain, -1, clk.t, clk.t+0.001*float64(rank+1), 300<<10, -1) // at close
	return r.Spans()
}

// spanFile writes a two-rank span set as -span-out does and reads it back
// through the command's own loader.
func spanFile(t *testing.T) []span.Span {
	t.Helper()
	in := append(rankSpans(0, 0), rankSpans(1, 1<<20)...)
	path := filepath.Join(t.TempDir(), "spans.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := span.WriteChromeTrace(f, in, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	spans, dropped := readSpans(path)
	if len(spans) != len(in) || dropped != 0 {
		t.Fatalf("read %d spans (%d dropped), wrote %d", len(spans), dropped, len(in))
	}
	return spans
}

// TestSummary checks the summary's phase table has one row per phase and
// that the per-server load it prints accounts for every pfs byte.
func TestSummary(t *testing.T) {
	spans := spanFile(t)
	phases := map[string]bool{}
	var pfsBytes int64
	for _, s := range spans {
		phases[s.Phase] = true
		if s.Phase == span.PFSRead || s.Phase == span.PFSWrite {
			pfsBytes += s.Bytes
		}
	}
	var out bytes.Buffer
	summary(&out, spans, 4, 256<<10)

	sc := bufio.NewScanner(&out)
	for sc.Scan() && !strings.HasPrefix(sc.Text(), "phase") {
	}
	rows := map[string]bool{}
	for sc.Scan() && sc.Text() != "" {
		p := strings.Fields(sc.Text())[0]
		if rows[p] || !phases[p] {
			t.Errorf("phase table row %q: repeated or not a phase of the trace", sc.Text())
		}
		rows[p] = true
	}
	if len(rows) != len(phases) {
		t.Errorf("phase table has %d rows, the trace %d phases:\n%s", len(rows), len(phases), out.String())
	}

	var servers int
	var served int64
	for sc.Scan() {
		var srv int
		var b int64
		if n, _ := fmt.Sscanf(sc.Text(), "  server %d %d", &srv, &b); n == 2 {
			servers++
			served += b
		}
	}
	if servers != 4 || served != pfsBytes {
		t.Errorf("per-server load: %d servers holding %d bytes, want 4 holding the pfs spans' %d:\n%s",
			servers, served, pfsBytes, out.String())
	}
}

// TestSpanCommandsRun runs the other analyses over the same file.
func TestSpanCommandsRun(t *testing.T) {
	spans := spanFile(t)
	for _, c := range []struct{ name, want string }{
		{"timeline", "rank 1 ("},
		{"critical", "critical path (1 rounds)"},
		{"critical", "drain (writes in flight settled): rank 1 waited longest"},
		{"imbalance", span.PFSWrite},
	} {
		var out bytes.Buffer
		commands[c.name](&out, spans)
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s printed no %q:\n%s", c.name, c.want, out.String())
		}
	}
}
