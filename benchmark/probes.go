package main

import (
	"fmt"
	"time"

	"pnetcdf/internal/access"
	"pnetcdf/internal/cdf"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpiio"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/pfs"
)

// Layer probes: host time of the layers below core, measured by calling each
// layer's public functions directly with the shapes the workload sends it.
// A shape the workload does not send leaves its metric at 0.

// prober runs every probe of one workload under one time budget per probe.
type prober struct {
	s      shapes
	n      int
	net    mpi.NetConfig
	budget time.Duration // per probe
	ht     *hostTrace
	out    map[string]float64
	hints  mpiio.Hints // as mpiio resolved them, learnt by the replay
	err    error       // the first failure
}

// reps calls fn for about the budget, at least three times, and returns the
// median seconds per call.
func (p *prober) reps(fn func()) float64 {
	var secs []float64
	for start := time.Now(); len(secs) < 3 || time.Since(start) < p.budget; {
		t := time.Now()
		fn()
		secs = append(secs, time.Since(t).Seconds())
	}
	return median(secs)
}

// fail keeps the first error a probe meets; the probes run on regardless.
func (p *prober) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

func (p *prober) run() error {
	for _, probe := range []func(){p.codec, p.header, p.views, p.replay, p.messaging, p.store} {
		probe()
	}
	return p.err
}

// codec times the cdf external-representation codec on rank 0's largest
// encode and decode.
func (p *prober) codec() {
	mbps := func(c *codecShape, fn func(c *codecShape, ext []byte) error) float64 {
		if c == nil {
			return 0
		}
		ext := make([]byte, c.bytes)
		return float64(c.bytes) / 1e6 / p.reps(func() { p.fail(fn(c, ext)) })
	}
	p.out["cdf.encode_MBps"] = mbps(p.s.encSegs, func(c *codecShape, ext []byte) error {
		_, err := cdf.EncodeSegs(ext[:0], c.typ, c.data, c.memsegs)
		return err
	})
	p.out["cdf.encode_contig_MBps"] = mbps(p.s.encFlat, func(c *codecShape, ext []byte) error {
		_, err := cdf.EncodeSlice(ext[:0], c.typ, c.data)
		return err
	})
	p.out["cdf.decode_MBps"] = mbps(p.s.dec, func(c *codecShape, ext []byte) error {
		if c.memsegs == nil {
			return cdf.DecodeSlice(ext, c.typ, c.data)
		}
		return cdf.DecodeSegs(ext, c.typ, c.memsegs, c.data)
	})
}

// header times the header codec and the name lookup on the workload's own
// header.
func (p *prober) header() {
	hdr := p.s.hdr
	blob := hdr.Encode()
	p.out["cdf.hdr_bytes"] = float64(len(blob))
	p.out["cdf.hdr_encode_ms"] = 1e3 * p.reps(func() { hdr.Encode() })
	p.out["cdf.hdr_decode_ms"] = 1e3 * p.reps(func() {
		_, err := cdf.Decode(blob)
		p.fail(err)
	})
	p.out["cdf.hdr_validate_ms"] = 1e3 * p.reps(func() { p.fail(hdr.Validate()) })
	p.out["cdf.findvar_us"] = 1e6 / float64(len(hdr.Vars)) * p.reps(func() {
		for i := range hdr.Vars {
			if hdr.FindVar(hdr.Vars[i].Name) != i {
				p.fail(fmt.Errorf("FindVar(%s) missed", hdr.Vars[i].Name))
			}
		}
	})
}

// biggest returns rank 0's largest data dataAccess, nil if the workload has none.
func (p *prober) biggest() *dataAccess {
	var best *dataAccess
	var bestN int64
	for _, per := range [][][]dataAccess{p.s.writes, p.s.reads} {
		if len(per) == 0 {
			continue
		}
		for i := range per[0] {
			n := int64(1)
			for _, c := range per[0][i].count {
				n *= c
			}
			if n > bestN {
				best, bestN = &per[0][i], n
			}
		}
	}
	return best
}

// fileView resolves one access into its MPI-IO file view, as core does.
func fileView(hdr *cdf.Header, a dataAccess, writing bool) (mpitype.Datatype, error) {
	v := &hdr.Vars[a.varid]
	req, err := access.Validate(hdr, v, a.start, a.count, nil, writing)
	if err != nil {
		return mpitype.Datatype{}, err
	}
	return access.FileView(hdr, v, req)
}

// views times view resolution and flattening for the largest access.
func (p *prober) views() {
	for _, name := range []string{"access.fileview_us", "mpitype.subarray_us", "mpitype.flatten_us", "mpitype.segs_per_rank"} {
		p.out[name] = 0
	}
	if m := p.s.memtype; m != nil {
		p.out["mpitype.subarray_us"] = 1e6 * p.reps(func() {
			_, err := mpitype.Subarray(m.sizes, m.subsizes, m.starts, 1)
			p.fail(err)
		})
	}
	a := p.biggest()
	if a == nil {
		return
	}
	view, err := fileView(p.s.hdr, *a, false)
	if err != nil {
		p.fail(err)
		return
	}
	p.out["mpitype.segs_per_rank"] = float64(view.NumSegments())
	p.out["access.fileview_us"] = 1e6 * p.reps(func() {
		_, err := fileView(p.s.hdr, *a, false)
		p.fail(err)
	})
	p.out["mpitype.flatten_us"] = 1e6 * p.reps(func() {
		_, err := view.SegmentsForRange(0, 0, view.Size())
		p.fail(err)
	})
}

// replayAccess is one access below core: its file view and external bytes.
type replayAccess struct {
	view mpitype.Datatype
	ext  []byte
}

// lower turns a workload's accesses into what core hands mpiio: the view,
// and for writes the pre-encoded bytes.
func lower(hdr *cdf.Header, per [][]dataAccess, writing bool) ([][]replayAccess, error) {
	out := make([][]replayAccess, len(per))
	for r, as := range per {
		for _, a := range as {
			view, err := fileView(hdr, a, writing)
			if err != nil {
				return nil, err
			}
			ext := make([]byte, 0, view.Size())
			switch {
			case !writing:
				ext = ext[:view.Size()]
			case a.memsegs == nil:
				ext, err = cdf.EncodeSlice(ext, hdr.Vars[a.varid].Type, a.data)
			default:
				ext, err = cdf.EncodeSegs(ext, hdr.Vars[a.varid].Type, a.data, a.memsegs)
			}
			if err != nil {
				return nil, err
			}
			out[r] = append(out[r], replayAccess{view, ext})
		}
	}
	return out, nil
}

const replayPath = "replay.nc"

// replay issues the workload's data accesses straight to mpiio — Open,
// SetView, WriteAtAll/ReadAtAll, Close — with core bypassed, and times the
// collective calls. What core adds on top is core.self_put_ms/self_get_ms.
func (p *prober) replay() {
	p.out["mpiio.write_ms"], p.out["mpiio.read_ms"] = 0, 0
	if len(p.s.writes) == 0 && len(p.s.reads) == 0 {
		return
	}
	writes, err := lower(p.s.hdr, p.s.writes, true)
	p.fail(err)
	reads, err := lower(p.s.hdr, p.s.reads, false)
	p.fail(err)
	if p.err != nil {
		return
	}
	path, amode := replayPath, mpiio.ModeRdWr|mpiio.ModeCreate|mpiio.ModeTrunc
	if p.s.prefs != nil {
		path, amode = p.s.path, mpiio.ModeRdOnly
	}
	// each issues one rank's accesses of one direction, a span around each.
	each := func(rs *rankSpans, f *mpiio.File, name string, as []replayAccess, io func(off int64, buf []byte) error) error {
		for _, a := range as {
			if err := f.SetView(0, a.view); err != nil {
				return err
			}
			if err := rs.do(name, func() error { return io(0, a.ext) }); err != nil {
				return err
			}
		}
		return nil
	}
	var wms, rms []float64
	for start := time.Now(); len(wms) < 3 || time.Since(start) < 4*p.budget; {
		fsys := p.s.prefs
		if fsys == nil {
			fsys = pfs.New(p.s.fsCfg)
		}
		fsys.ResetClock()
		t0 := p.ht.now()
		err := mpi.Run(p.n, p.net, func(c *mpi.Comm) error {
			rs := p.ht.rank(c.Rank())
			f, err := mpiio.Open(c, fsys, path, amode, p.s.hints)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				p.hints = f.Hints()
			}
			if len(writes) > 0 {
				if err := each(rs, f, spanWrite, writes[c.Rank()], f.WriteAtAll); err != nil {
					return err
				}
				if err := f.Sync(); err != nil {
					return err
				}
			}
			if len(reads) > 0 {
				if err := each(rs, f, spanRead, reads[c.Rank()], f.ReadAtAll); err != nil {
					return err
				}
			}
			return f.Close()
		})
		if err != nil {
			p.fail(fmt.Errorf("mpiio replay: %w", err))
			return
		}
		per := p.ht.commit("mpiio", t0, p.ht.now())
		wms = append(wms, float64(per[spanWrite])/1e6)
		rms = append(rms, float64(per[spanRead])/1e6)
	}
	p.out["mpiio.write_ms"], p.out["mpiio.read_ms"] = median(wms), median(rms)
}

// messaging times the simulated MPI runtime's primitives at the job size:
// world start-up, the two-value agreement core issues per access, the header
// broadcast, and an exchange of collective-buffer-sized parts.
func (p *prober) messaging() {
	// world times one mpi.Run in which every rank makes calls calls.
	world := func(calls int, call func(c *mpi.Comm)) float64 {
		return p.reps(func() {
			p.fail(mpi.Run(p.n, p.net, func(c *mpi.Comm) error {
				for i := 0; i < calls; i++ {
					call(c)
				}
				return nil
			}))
		})
	}
	p.out["mpi.run_us"] = 1e6 * world(0, nil)
	const k = 64 // calls per world, so that start-up does not dominate
	p.out["mpi.allreduce_us"] = 1e6 / k * world(k, func(c *mpi.Comm) {
		c.AllreduceI64([]int64{int64(c.Rank()), 1}, mpi.OpMax)
	})
	blob := p.s.hdr.Encode()
	p.out["mpi.bcast_us"] = 1e6 / k * world(k, func(c *mpi.Comm) {
		if c.Rank() == 0 {
			c.Bcast(0, blob)
		} else {
			c.Bcast(0, nil)
		}
	})
	const part, rounds = 64 << 10, 8
	parts := make([][]byte, p.n) // read-only, so every rank sends the same parts
	for i := range parts {
		parts[i] = make([]byte, part)
	}
	sec := world(rounds, func(c *mpi.Comm) { c.Alltoall(parts) })
	p.out["mpi.alltoall_MBps"] = float64(rounds*p.n*p.n*part) / 1e6 / sec
}

// store times the pfs data plane alone — WriteVec and ReadVec from one
// goroutine — with an iovec shaped like an aggregator's round: as many bytes
// as one aggregator moves per round, in pieces as long as the workload's
// file segments.
func (p *prober) store() {
	p.out["pfs.store_write_MBps"], p.out["pfs.store_read_MBps"] = 0, 0
	a := p.biggest()
	if a == nil || p.err != nil {
		return // no data accesses, or no replay to learn the hints from
	}
	view, err := fileView(p.s.hdr, *a, false)
	if err != nil {
		p.fail(err)
		return
	}
	call := min(p.hints.CBBufferSize, view.Size()*int64(p.n)/int64(p.hints.CBNodes))
	piece := min(view.Segments()[0].Len, call)
	call -= call % piece
	buf := make([]byte, call)
	var iov [][]byte
	for off := int64(0); off < call; off += piece {
		iov = append(iov, buf[off:off+piece])
	}
	f, _ := pfs.New(p.s.fsCfg).Create("store.probe", 0)
	const span = 64 << 20 // the calls walk a region this long, like a file domain
	segs := []pfs.Segment{{Len: call}}
	// vec issues one call at the next position of the region.
	vec := func(io func(t float64, segs []pfs.Segment, iov [][]byte) (float64, error)) {
		_, err := io(0, segs, iov)
		p.fail(err)
		segs[0].Off = (segs[0].Off + call) % span
	}
	for off := int64(0); off < span; off += call { // populate, so writes overwrite and reads hit data
		vec(f.WriteVec)
	}
	p.out["pfs.store_write_MBps"] = float64(call) / 1e6 / p.reps(func() { vec(f.WriteVec) })
	p.out["pfs.store_read_MBps"] = float64(call) / 1e6 / p.reps(func() { vec(f.ReadVec) })
}
