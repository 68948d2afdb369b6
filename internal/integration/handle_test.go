package integration

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"pnetcdf/internal/core"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
)

// A dataset keeps the state of its calls from one call to the next
// (DESIGN.md §3): the vectors of a queued request live in storage the
// dataset owns, and a view is cached by its geometry relative to the
// variable and installed at the variable's begin. These tests hold both
// against the serial library, byte for byte.

const handleRanks, handleRows, handleCols = 4, 3, 5

// handleVals is the values rank r puts into variable v.
func handleVals(v, r int) []int32 {
	out := make([]int32, handleRows*handleCols)
	for i := range out {
		out[i] = int32(1000*v + 100*r + i)
	}
	return out
}

// defineHandleVars defines two fixed variables and two record variables of
// one shape each, [handleRanks*handleRows, handleCols], and ends define
// mode. It returns the varids: fixed a, fixed b, record r, record s.
func defineHandleVars(d harnessLib) ([4]int, error) {
	var ids [4]int
	t, err := d.DefDim("t", 0)
	if err != nil {
		return ids, err
	}
	y, _ := d.DefDim("y", handleRanks*handleRows)
	x, _ := d.DefDim("x", handleCols)
	for i, v := range []struct {
		name string
		dims []int
	}{{"a", []int{y, x}}, {"b", []int{y, x}}, {"r", []int{t, x}}, {"s", []int{t, x}}} {
		if ids[i], err = d.DefVar(v.name, nctype.Int, v.dims); err != nil {
			return ids, err
		}
	}
	return ids, d.EndDef()
}

// TestQueuedRequestSurvivesCallerReuse: IPutVara and IGetVara take copies
// of their start and count, so a caller that overwrites its slices before
// WaitAll still moves the geometry it passed. Each rank queues a write of its
// rows of a and a read of its rows of b, then points both pairs of slices at
// its neighbour's single row; the file must be the serial library's, and the
// read must return the rank's own rows.
func TestQueuedRequestSurvivesCallerReuse(t *testing.T) {
	store := &netcdf.MemStore{}
	sd, err := netcdf.Create(store, nctype.Clobber)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := defineHandleVars(sd)
	if err != nil {
		t.Fatal(err)
	}
	a, b := ids[0], ids[1]
	count := []int64{handleRows, handleCols}
	for r := 0; r < handleRanks; r++ {
		start := []int64{int64(r * handleRows), 0}
		if err := sd.PutVara(b, start, count, handleVals(b, r)); err != nil {
			t.Fatal(err)
		}
		if err := sd.PutVara(a, start, count, handleVals(a, r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sd.Close(); err != nil {
		t.Fatal(err)
	}
	fsys := newFS()
	err = mpi.Run(handleRanks, mpi.DefaultNet(), func(c *mpi.Comm) error {
		d, err := core.Create(c, fsys, "reuse.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		if _, err := defineHandleVars(d); err != nil {
			return err
		}
		r := c.Rank()
		mine := []int64{int64(r * handleRows), 0}
		if err := d.PutVaraAll(b, mine, count, handleVals(b, r)); err != nil {
			return err
		}
		pstart, pcount := slices.Clone(mine), slices.Clone(count)
		if _, err := d.IPutVara(a, pstart, pcount, handleVals(a, r)); err != nil {
			return err
		}
		got := make([]int32, handleRows*handleCols)
		gstart, gcount := slices.Clone(mine), slices.Clone(count)
		if _, err := d.IGetVara(b, gstart, gcount, got); err != nil {
			return err
		}
		// Reuse all four slices for another access before WaitAll.
		next := int64((r + 1) % handleRanks * handleRows)
		for _, v := range [][]int64{pstart, gstart} {
			v[0], v[1] = next, 1
		}
		for _, v := range [][]int64{pcount, gcount} {
			v[0], v[1] = 1, 2
		}
		if err := d.WaitAll(); err != nil {
			return err
		}
		if want := handleVals(b, r); !slices.Equal(got, want) {
			return fmt.Errorf("rank %d read %v, want %v", r, got, want)
		}
		return d.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if img := readPFSFile(t, fsys, "reuse.nc"); !bytes.Equal(img, store.Data) {
		t.Fatalf("parallel file (%d bytes) differs from the serial library's (%d bytes)", len(img), len(store.Data))
	}
}

// TestSharedViewLandsAtEachBegin: variables of one shape share one cached
// view, relative to the variable, installed at each variable's begin. Two
// collective puts of the same geometry to two fixed variables, and to two
// record variables (whose views step whole records), plus a strided put to
// each, must each land at their own variable: the file must be the serial
// library's, and a collective read through the shared views must return
// each variable's own values.
func TestSharedViewLandsAtEachBegin(t *testing.T) {
	count := []int64{handleRows, handleCols}
	strided := []int64{1, 3} // columns 0, 2, 4 of the rank's first row
	stride := []int64{1, 2}
	put := func(d interface {
		PutVara(int, []int64, []int64, any) error
		PutVars(int, []int64, []int64, []int64, any) error
	}, ids [4]int, r int) error {
		start := []int64{int64(r * handleRows), 0}
		for _, v := range ids {
			if err := d.PutVara(v, start, count, handleVals(v, r)); err != nil {
				return err
			}
		}
		for _, v := range ids {
			if err := d.PutVars(v, start, strided, stride, handleVals(v+10, r)[:3]); err != nil {
				return err
			}
		}
		return nil
	}
	store := &netcdf.MemStore{}
	sd, err := netcdf.Create(store, nctype.Clobber)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := defineHandleVars(sd)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < handleRanks; r++ {
		if err := put(sd, ids, r); err != nil {
			t.Fatal(err)
		}
	}
	want := make(map[int][]int32, len(ids))
	for _, v := range ids {
		want[v] = make([]int32, handleRanks*handleRows*handleCols)
		if err := sd.GetVar(v, want[v]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sd.Close(); err != nil {
		t.Fatal(err)
	}
	fsys := newFS()
	err = mpi.Run(handleRanks, mpi.DefaultNet(), func(c *mpi.Comm) error {
		d, err := core.Create(c, fsys, "shared.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		if _, err := defineHandleVars(d); err != nil {
			return err
		}
		if err := put(collective{d}, ids, c.Rank()); err != nil {
			return err
		}
		for _, v := range ids {
			got := make([]int32, handleRanks*handleRows*handleCols)
			if err := d.GetVaraAll(v, []int64{0, 0}, []int64{handleRanks * handleRows, handleCols}, got); err != nil {
				return err
			}
			if !slices.Equal(got, want[v]) {
				return fmt.Errorf("rank %d: variable %d reads %v, want %v", c.Rank(), v, got, want[v])
			}
		}
		return d.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if img := readPFSFile(t, fsys, "shared.nc"); !bytes.Equal(img, store.Data) {
		t.Fatalf("parallel file (%d bytes) differs from the serial library's (%d bytes)", len(img), len(store.Data))
	}
}

// collective spells a parallel dataset's collective puts with the serial
// library's names.
type collective struct{ *core.Dataset }

func (c collective) PutVara(v int, start, count []int64, data any) error {
	return c.PutVaraAll(v, start, count, data)
}

func (c collective) PutVars(v int, start, count, stride []int64, data any) error {
	return c.PutVarsAll(v, start, count, stride, data)
}
