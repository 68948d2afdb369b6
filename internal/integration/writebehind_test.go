package integration

import (
	"fmt"
	"sync"
	"testing"

	"pnetcdf/internal/core"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpiio/behindtest"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/pfs"
	"pnetcdf/internal/span"
)

// TestPublishesFollowTheDrain holds core's publishes to the write-behind
// contract (behindtest.Check): data writes are written behind, and a header
// or numrecs publish is issued only once every rank's writes before it have
// completed. The run publishes the three ways data mode can — numrecs grown
// by a collective put, a header rewritten by a data-mode attribute, numrecs
// grown independently and reconciled by EndIndepData — each right behind
// collective and independent writes still in flight, then Syncs and closes.
func TestPublishesFollowTheDrain(t *testing.T) {
	const ranks, per = 4, 16 << 10 // floats per rank
	cfg := pfs.BlueHorizon()
	fsys := pfs.New(cfg)
	var mu sync.Mutex
	var spans []span.Span
	p := behindtest.Params{NetLatency: cfg.NetLatency, ClientBW: cfg.ClientBW,
		Cache: cfg.ClientCache, Drained: map[int]float64{}}
	err := mpi.Run(ranks, mpi.DefaultNet(), func(c *mpi.Comm) error {
		rec := span.NewRecorder(c.Rank(), c.Proc().Clock)
		c.Proc().SetSpans(rec)
		d, err := core.Create(c, fsys, "pub.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		tdim, _ := d.DefDim("t", 0)
		xdim, _ := d.DefDim("x", ranks*per)
		fixed, _ := d.DefVar("fixed", nctype.Float, []int{xdim})
		recs, _ := d.DefVar("recs", nctype.Float, []int{tdim, xdim})
		if err := d.PutAttr(core.GlobalID, "title", nctype.Char, "before"); err != nil {
			return err
		}
		if err := d.EndDef(); err != nil {
			return err
		}
		buf := make([]float32, per)
		mine := []int64{int64(c.Rank()) * per}
		row := func(r int64) []int64 { return []int64{r, mine[0]} }
		steps := []func() error{
			func() error { return d.PutVaraAll(fixed, mine, []int64{per}, buf) },
			func() error { return d.PutVaraAll(recs, row(0), []int64{1, per}, buf) }, // numrecs 0 → 1
			func() error { return d.PutVaraAll(fixed, mine, []int64{per}, buf) },
			func() error { return d.PutAttr(core.GlobalID, "title", nctype.Char, "after!") },
			d.BeginIndepData,
			func() error { return d.PutVara(fixed, mine, []int64{per}, buf) },
			func() error { return d.PutVara(recs, row(1), []int64{1, per}, buf) },
			d.EndIndepData, // numrecs 1 → 2
			func() error { return d.PutVaraAll(fixed, mine, []int64{per}, buf) },
			d.Sync,
			func() error { return d.PutVaraAll(recs, row(1), []int64{1, per}, buf) },
			d.Close,
		}
		for i, step := range steps {
			if err := step(); err != nil {
				return fmt.Errorf("rank %d, step %d: %w", c.Rank(), i, err)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		spans = append(spans, rec.Spans()...)
		p.Drained[c.Rank()] = c.Clock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if data, publishes := behindtest.Exercised(spans); data < 8 || publishes < 3 {
		t.Fatalf("%d data writes and %d publishes behind them: the run does not exercise the contract", data, publishes)
	}
	for _, e := range behindtest.Check(spans, p) {
		t.Error(e)
	}
}
