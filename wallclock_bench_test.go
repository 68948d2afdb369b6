package pnetcdf_test

// Wall-clock benchmarks for the scatter-gather data path: the real-CPU cost
// of packing subarrays into external bytes and of driving a collective write
// round through the MPI-IO layer. Unlike the sim-MB/s figures, these measure
// the simulator's own ns/op and allocs/op; results/BENCH_wallclock.json
// records their trajectory. The aggregator's assembly step alone — the merge
// of one round's received messages — is BenchmarkAggregatorAssemble in
// internal/mpiio/wallclock_bench_test.go, next to the unexported code it times.

import (
	"testing"

	"pnetcdf/internal/access"
	"pnetcdf/internal/cdf"
	"pnetcdf/internal/flash"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpiio"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
	"pnetcdf/internal/pfs"
)

// packSubarraySegs builds the memory element map of a 64x64x16 subarray of a
// 64x64x64 float32 array: 4096 rows of 16 contiguous elements (the innermost
// dimension is a contiguous run; rows are strided apart).
func packSubarraySegs(b *testing.B) []mpitype.Segment {
	b.Helper()
	segs, err := access.MemSegments([]int64{64, 64, 16}, []int64{64 * 64, 64, 1})
	if err != nil {
		b.Fatal(err)
	}
	return segs
}

// BenchmarkPackSubarray measures the strided subarray pack path: gathering
// the elements a flattened typemap selects from user memory and converting
// them to external (big-endian) bytes, as every flexible/imap put does.
func BenchmarkPackSubarray(b *testing.B) {
	segs := packSubarraySegs(b)
	src := make([]float32, 64*64*64)
	for i := range src {
		src[i] = float32(i)
	}
	var n int64
	for _, s := range segs {
		n += s.Len
	}
	b.SetBytes(n * 4)
	b.ReportAllocs()
	b.ResetTimer()
	var ext []byte
	for i := 0; i < b.N; i++ {
		var err error
		ext, err = netcdf.PackFlex(ext[:0], nctype.Float, src, segs)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnpackSubarray is the inverse path: decoding external bytes and
// scattering them into the positions a flattened typemap selects.
func BenchmarkUnpackSubarray(b *testing.B) {
	segs := packSubarraySegs(b)
	dst := make([]float32, 64*64*64)
	var n int64
	for _, s := range segs {
		n += s.Len
	}
	ext := make([]byte, n*4)
	b.SetBytes(n * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := netcdf.UnpackFlex(ext, nctype.Float, segs, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPackContig is the contiguous-memory pack (the high-level API's
// path): pure element conversion, no gather.
func BenchmarkPackContig(b *testing.B) {
	src := make([]float32, 64<<10)
	b.SetBytes(int64(len(src)) * 4)
	b.ReportAllocs()
	b.ResetTimer()
	var ext []byte
	for i := 0; i < b.N; i++ {
		var err error
		ext, err = cdf.EncodeSlice(ext[:0], nctype.Float, src)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlashCheckpoint8 measures the real-CPU cost of a full 8-rank
// FLASH checkpoint (8x8x8 blocks) with the staging buffer sized below the
// aggregator file domains, so every per-variable collective runs several
// two-phase rounds: the aggregator's PFS store runs on a background
// goroutine while the ranks pack and exchange the next round.
func BenchmarkFlashCheckpoint8(b *testing.B) {
	cfg := flash.Default8()
	info := mpi.NewInfo().Set("cb_buffer_size", "65536")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fsys := pfs.New(pfs.DefaultConfig())
		err := mpi.Run(8, mpi.DefaultNet(), func(c *mpi.Comm) error {
			_, err := flash.WriteCheckpointPnetCDF(c, fsys, "f.nc", cfg, info)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectiveRound measures one 4-rank collective write through the
// MPI-IO layer: interleaved strided views, a cb_buffer_size small enough to
// force several two-phase rounds, ~4 MiB moved per op. Wall-clock ns/op and
// allocs/op are the aggregator hot path the zero-copy work targets.
func BenchmarkCollectiveRound(b *testing.B) {
	const ranks = 4
	const blockLen = 64 << 10 // per-rank contiguous piece per stripe-round
	const nBlocks = 16        // 1 MiB per rank
	b.SetBytes(int64(ranks * blockLen * nBlocks))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := pfs.New(pfs.DefaultConfig())
		err := mpi.Run(ranks, mpi.DefaultNet(), func(c *mpi.Comm) error {
			info := mpi.NewInfo()
			info.Set("cb_buffer_size", "262144")
			f, err := mpiio.Open(c, fs, "bench.nc", mpiio.ModeRdWr|mpiio.ModeCreate, info)
			if err != nil {
				return err
			}
			// Rank r owns blocks r, r+ranks, r+2*ranks, ... of blockLen bytes.
			ft, err := mpitype.Vector(nBlocks, blockLen, ranks*blockLen, mpitype.Contig(1))
			if err != nil {
				return err
			}
			if err := f.SetView(int64(c.Rank())*blockLen, ft); err != nil {
				return err
			}
			buf := make([]byte, nBlocks*blockLen)
			for j := range buf {
				buf[j] = byte(c.Rank())
			}
			if err := f.WriteAtAll(0, buf); err != nil {
				return err
			}
			return f.Close()
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
