package span_test

import (
	"testing"

	"pnetcdf/internal/span"
)

// TestSpanDisabledZeroAlloc pins the disabled-span path at 0 allocs/op:
// a nil *Recorder (the production state when no harness enabled tracing)
// must make the full Begin/SetRound/SetBytes/End/Record surface free.
// This is the contract that lets the instrumentation live on the hot
// collective path unconditionally.
func TestSpanDisabledZeroAlloc(t *testing.T) {
	var r *span.Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		a := r.Begin(span.CollWrite)
		b := r.Begin(span.Round)
		b.SetRound(3)
		b.SetBytes(1 << 20)
		b.AddBytes(4096)
		r.Record(span.PFSWrite, 3, 0.1, 0.2, 4096, 0)
		b.End()
		a.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %v allocs/op, want 0", allocs)
	}
}

// BenchmarkSpanDisabled measures the raw overhead of the disabled path.
func BenchmarkSpanDisabled(b *testing.B) {
	var r *span.Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := r.Begin(span.CollWrite)
		a.SetBytes(int64(i))
		a.End()
	}
}
