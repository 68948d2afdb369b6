package mpiio

import (
	"fmt"
	"testing"
)

// interleavedRound builds the messages an aggregator receives in one round of
// the Figure 6 X partition: every one of sources ranks owns every sources-th
// 128-byte block of the window, perSource blocks each.
func interleavedRound(sources, perSource int, payload bool) (msgs [][]byte, lo, hi int64) {
	const block = 128
	lo = 1 << 20
	hi = lo + int64(sources*perSource*block)
	msgs = make([][]byte, sources)
	buf := make([]byte, perSource*block)
	for s := range msgs {
		reqs := make([]reqSeg, perSource)
		for i := range reqs {
			reqs[i] = reqSeg{off: lo + int64((i*sources+s)*block), len: block, bufPos: int64(i * block)}
		}
		if payload {
			msgs[s] = encodeWriteMsg(reqs, Bytes(buf))
		} else {
			msgs[s] = encodeReadMsg(reqs)
		}
	}
	return msgs, lo, hi
}

// BenchmarkAggregatorAssemble is the aggregator's share of one two-phase
// round, alone: merging the received messages into the vectored write
// (write) or into the coverage and the per-request positions (read). 8x64 is
// the benchmark's fig6_x_multiround round (8 ranks, 64 KiB window, 128-byte
// segments); 8x2048 is the same pattern in a 2 MiB window. The scratch is
// reused across iterations as a collective reuses it across rounds, so
// allocs/op is the steady state: 0. The sortref rows run the test file's
// decode-sort-walk reference on the same messages — what the aggregator did
// before — so the before/after of the layer regenerates from one command.
func BenchmarkAggregatorAssemble(b *testing.B) {
	for _, perSource := range []int{64, 2048} {
		b.Run(fmt.Sprintf("write-sortref/8x%d", perSource), func(b *testing.B) {
			msgs, _, _ := interleavedRound(8, perSource, true)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				refAssembleWrite(msgs)
			}
		})
		b.Run(fmt.Sprintf("read-sortref/8x%d", perSource), func(b *testing.B) {
			msgs, _, _ := interleavedRound(8, perSource, false)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				refCoverage(msgs)
			}
		})
		b.Run(fmt.Sprintf("write/8x%d", perSource), func(b *testing.B) {
			msgs, lo, hi := interleavedRound(8, perSource, true)
			var w writeVec
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.assemble(msgs, lo, hi); err != nil {
					b.Fatal(err)
				}
			}
			if len(w.segs) != 1 || len(w.iov) != 8*perSource {
				b.Fatalf("assembled %d segments, %d iovec entries", len(w.segs), len(w.iov))
			}
		})
		b.Run(fmt.Sprintf("read/8x%d", perSource), func(b *testing.B) {
			msgs, lo, hi := interleavedRound(8, perSource, false)
			var cov coverage
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cov.assemble(msgs, lo, hi); err != nil {
					b.Fatal(err)
				}
				cov.release()
			}
			if len(cov.segs) != 1 || len(cov.reqs) != 8*perSource {
				b.Fatalf("assembled %d segments, %d request positions", len(cov.segs), len(cov.reqs))
			}
		})
	}
}
