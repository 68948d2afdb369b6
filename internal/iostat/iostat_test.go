package iostat

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestNilCollectorsAreNoOps(t *testing.T) {
	var s *Stats
	s.Add(PfsBytesRead, 10) // must not panic
	s.AddTime(IOReadTimeNs, 1.5)
	s.Reset()
	if got := s.Get(PfsBytesRead); got != 0 {
		t.Fatalf("nil Stats Get = %d", got)
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := New()
	s.Add(IOBytesWritten, 100)
	s.Add(IOBytesWritten, 23)
	s.AddTime(IOWriteTimeNs, 0.5) // 5e8 ns
	s.AddTime(IOWriteTimeNs, -1)  // ignored
	s.AddTime(IOWriteTimeNs, 0)   // ignored
	if got := s.Get(IOBytesWritten); got != 123 {
		t.Fatalf("IOBytesWritten = %d", got)
	}
	if got := s.Get(IOWriteTimeNs); got != 5e8 {
		t.Fatalf("IOWriteTimeNs = %d", got)
	}
	snap := s.snapshot()
	if snap[IOBytesWritten] != 123 {
		t.Fatalf("snapshot = %d", snap[IOBytesWritten])
	}
	s.Reset()
	if s.Get(IOBytesWritten) != 0 || s.Get(IOWriteTimeNs) != 0 {
		t.Fatal("Reset did not zero")
	}
	// A snapshot taken before Reset is unaffected.
	if snap[IOBytesWritten] != 123 {
		t.Fatal("snapshot aliased live counters")
	}
}

func TestStatsConcurrentAdd(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Add(MPIBytesSent, 1)
			}
		}()
	}
	wg.Wait()
	if got := s.Get(MPIBytesSent); got != 8000 {
		t.Fatalf("concurrent adds lost updates: %d", got)
	}
}

func TestCounterMetadata(t *testing.T) {
	seen := map[string]bool{}
	for k := Counter(0); k < numCounters; k++ {
		name := k.String()
		if name == "" || strings.ContainsAny(name, " \t") {
			t.Fatalf("counter %d has bad name %q", k, name)
		}
		if seen[name] {
			t.Fatalf("duplicate counter name %q", name)
		}
		seen[name] = true
		if k.layer() == "" {
			t.Fatalf("counter %s has no layer", name)
		}
		if k.isTime() != strings.HasSuffix(name, "_ns") {
			t.Fatalf("counter %s isTime mismatch", name)
		}
	}
}

func TestWriteTableSelfCheck(t *testing.T) {
	s := New()
	// A consistent little run: 100 data bytes + 20 header bytes through
	// mpiio, 6 bytes of sieve RMW amplification, all landing in pfs.
	s.Add(NCBytesPut, 100)
	s.Add(IOBytesWritten, 100)
	s.Add(IORawBytesWritten, 20)
	s.Add(IOSieveWriteAmpBytes, 6)
	s.Add(PfsBytesWritten, 126)
	sum := &Summary{Ranks: 1, Min: s.snapshot(), Max: s.snapshot(), Sum: s.snapshot()}
	var buf bytes.Buffer
	WriteTable(&buf, sum)
	out := buf.String()
	if !strings.Contains(out, "self-check") {
		t.Fatalf("no self-check in table:\n%s", out)
	}
	if !strings.Contains(out, "pfs") || !strings.Contains(out, "mpi-io") {
		t.Fatalf("missing layers:\n%s", out)
	}
}
