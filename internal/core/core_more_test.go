package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/nctype"
)

func TestCDF5Parallel(t *testing.T) {
	fsys := testFS()
	runWorld(t, 3, func(c *mpi.Comm) error {
		d, err := Create(c, fsys, "c5.nc", nctype.Bit64Data, nil)
		if err != nil {
			return err
		}
		x, _ := d.DefDim("x", 9)
		v, err := d.DefVar("v", nctype.Int64, []int{x}) // CDF-5-only type
		if err != nil {
			return err
		}
		u, err := d.DefVar("u", nctype.UInt64, []int{x})
		if err != nil {
			return err
		}
		if err := d.EndDef(); err != nil {
			return err
		}
		if err := d.PutVaraAll(v, []int64{int64(c.Rank() * 3)}, []int64{3},
			[]int64{1 << 40, -(1 << 41), int64(c.Rank())}); err != nil {
			return err
		}
		if err := d.PutVaraAll(u, []int64{int64(c.Rank() * 3)}, []int64{3},
			[]uint64{1 << 63, 2, uint64(c.Rank())}); err != nil {
			return err
		}
		got := make([]int64, 9)
		if err := d.GetVaraAll(v, []int64{0}, []int64{9}, got); err != nil {
			return err
		}
		for r := 0; r < 3; r++ {
			if got[r*3] != 1<<40 || got[r*3+1] != -(1<<41) || got[r*3+2] != int64(r) {
				return fmt.Errorf("cdf5 int64 row %d = %v", r, got[r*3:r*3+3])
			}
		}
		gu := make([]uint64, 3)
		if err := d.GetVaraAll(u, []int64{0}, []int64{3}, gu); err != nil {
			return err
		}
		if gu[0] != 1<<63 {
			return fmt.Errorf("cdf5 uint64 = %v", gu)
		}
		return d.Close()
	})
	// The version byte on disk must be 5.
	pf, _, err := fsys.Open("c5.nc", 0)
	if err != nil {
		t.Fatal(err)
	}
	magic := make([]byte, 4)
	pf.ReadAt(0, magic, 0)
	if magic[3] != 5 {
		t.Fatalf("version byte = %d", magic[3])
	}
}

// A batch whose extents overlap on ONE rank is refused on every rank before a
// byte moves: the offender returns nctype.ErrOverlap, its peers
// mpi.ErrPeerFailed (the AgreeError convention), the queue is consumed
// everywhere and the dataset stays usable. Before the refusal rode in the
// agreement reduction the offender bailed out after it and its peers entered
// the collective write alone (a world abort at any rank count above 1).
func TestWaitAllOverlapRejected(t *testing.T) {
	for _, ranks := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			fsys := testFS()
			runWorld(t, ranks, func(c *mpi.Comm) error {
				d, err := Create(c, fsys, "ov.nc", nctype.Clobber, nil)
				if err != nil {
					return err
				}
				x, _ := d.DefDim("x", int64(8*ranks))
				v, _ := d.DefVar("v", nctype.Int, []int{x})
				if err := d.EndDef(); err != nil {
					return err
				}
				mine := int64(8 * c.Rank())
				base := []int32{1, 2, 3, 4, 5, 6, 7, 8}
				if err := d.PutVaraAll(v, []int64{mine}, []int64{8}, base); err != nil {
					return err
				}
				// Every rank queues one good write; rank 0 adds one that overlaps it.
				if _, err := d.IPutVara(v, []int64{mine}, []int64{4}, []int32{-1, -1, -1, -1}); err != nil {
					return err
				}
				if c.Rank() == 0 {
					if _, err := d.IPutVara(v, []int64{2}, []int64{4}, []int32{-2, -2, -2, -2}); err != nil {
						return err
					}
				}
				err = d.WaitAll()
				if want := map[bool]error{true: nctype.ErrOverlap, false: mpi.ErrPeerFailed}[c.Rank() == 0]; !errors.Is(err, want) {
					return fmt.Errorf("rank %d: WaitAll over an overlapping batch: %v, want %v", c.Rank(), err, want)
				}
				if n := d.PendingRequests(); n != 0 {
					return fmt.Errorf("rank %d: %d requests still queued after the refusal", c.Rank(), n)
				}
				got := make([]int32, 8)
				if err := d.GetVaraAll(v, []int64{mine}, []int64{8}, got); err != nil {
					return err
				}
				if !slices.Equal(got, base) {
					return fmt.Errorf("rank %d: a refused batch reached the file: %v", c.Rank(), got)
				}
				if err := d.PutVaraAll(v, []int64{mine}, []int64{8}, got); err != nil {
					return fmt.Errorf("rank %d: put after the refusal: %v", c.Rank(), err)
				}
				return d.Close()
			})
		})
	}
}

func TestMixedIPutIGetSameWaitAll(t *testing.T) {
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		d, err := Create(c, fsys, "mix.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		x, _ := d.DefDim("x", 8)
		a, _ := d.DefVar("a", nctype.Int, []int{x})
		b, _ := d.DefVar("b", nctype.Int, []int{x})
		if err := d.EndDef(); err != nil {
			return err
		}
		// Seed variable a.
		if err := d.PutVaraAll(a, []int64{int64(c.Rank() * 4)}, []int64{4},
			[]int32{1, 2, 3, 4}); err != nil {
			return err
		}
		// One WaitAll carrying a write (to b) and a read (from a).
		if _, err := d.IPutVara(b, []int64{int64(c.Rank() * 4)}, []int64{4},
			[]int32{5, 6, 7, 8}); err != nil {
			return err
		}
		got := make([]int32, 4)
		if _, err := d.IGetVara(a, []int64{int64(c.Rank() * 4)}, []int64{4}, got); err != nil {
			return err
		}
		if err := d.WaitAll(); err != nil {
			return err
		}
		if got[0] != 1 || got[3] != 4 {
			return fmt.Errorf("fused read = %v", got)
		}
		gb := make([]int32, 4)
		if err := d.GetVaraAll(b, []int64{int64(c.Rank() * 4)}, []int64{4}, gb); err != nil {
			return err
		}
		if gb[0] != 5 || gb[3] != 8 {
			return fmt.Errorf("fused write = %v", gb)
		}
		return d.Close()
	})
}

func TestIndependentFlexible(t *testing.T) {
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		d, _, grid, err := createStandard(c, fsys, "if.nc")
		if err != nil {
			return err
		}
		if err := d.BeginIndepData(); err != nil {
			return err
		}
		// Rank 1 writes through the independent flexible path: every other
		// element of a padded buffer.
		if c.Rank() == 1 {
			buf := []int32{10, -1, 11, -1, 12, -1, 13, -1}
			memtype, err := mpitype.Vector(4, 1, 2, mpitype.Contig(1))
			if err != nil {
				return err
			}
			if err := d.PutVaraType(grid, []int64{0, 0}, []int64{1, 4}, buf, memtype); err != nil {
				return err
			}
			got := make([]int32, 8)
			gt, err := mpitype.Vector(4, 1, 2, mpitype.Contig(1))
			if err != nil {
				return err
			}
			if err := d.GetVaraType(grid, []int64{0, 0}, []int64{1, 4}, got, gt); err != nil {
				return err
			}
			if got[0] != 10 || got[2] != 11 || got[6] != 13 || got[1] != 0 {
				return fmt.Errorf("independent flexible round trip = %v", got)
			}
		}
		return d.EndIndepData()
	})
}

func TestSyncPersistsNumRecsForLateOpeners(t *testing.T) {
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		d, flux, _, err := createStandard(c, fsys, "sync.nc")
		if err != nil {
			return err
		}
		buf := make([]float64, 32)
		if err := d.PutVaraAll(flux, []int64{4, 0, 0}, []int64{1, 4, 8}, buf); err != nil {
			return err
		}
		if err := d.Sync(); err != nil {
			return err
		}
		// A second communicator-wide open (same world) must see 5 records
		// even though the first handle is still open.
		r, err := Open(c, fsys, "sync.nc", nctype.NoWrite, nil)
		if err != nil {
			return err
		}
		if r.NumRecs() != 5 {
			return fmt.Errorf("late opener sees %d records", r.NumRecs())
		}
		if err := r.Close(); err != nil {
			return err
		}
		return d.Close()
	})
}

// Regression for the stale-NumRecs window: a collective put where ranks
// touch *different* records used to grow NumRecs only on the ranks whose
// own access demanded it. The grower then entered the collective numrecs
// rewrite alone — a mismatched collective, i.e. a hang — and a later
// collective read on a non-grower rejected the record as out of range.
// Collective entry points now allreduce (LastRecord, NumRecs) and adopt
// the maximum before validating or persisting.
func TestCollectiveAgreesOnDivergentRecordGrowth(t *testing.T) {
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		d, flux, _, err := createStandard(c, fsys, "stale.nc")
		if err != nil {
			return err
		}
		buf := make([]float64, 32)
		for i := range buf {
			buf[i] = 3.5
		}
		// Rank 0 writes record 6, rank 1 record 2: only rank 0's access
		// grows the record count.
		rec := int64(6)
		if c.Rank() == 1 {
			rec = 2
		}
		if err := d.PutVaraAll(flux, []int64{rec, 0, 0}, []int64{1, 4, 8}, buf); err != nil {
			return fmt.Errorf("rank %d: divergent collective put: %w", c.Rank(), err)
		}
		if d.NumRecs() != 7 {
			return fmt.Errorf("rank %d sees NumRecs=%d after divergent put, want 7", c.Rank(), d.NumRecs())
		}
		// Both ranks can now collectively read the grown record.
		got := make([]float64, 32)
		if err := d.GetVaraAll(flux, []int64{6, 0, 0}, []int64{1, 4, 8}, got); err != nil {
			return fmt.Errorf("rank %d: collective read of grown record: %w", c.Rank(), err)
		}
		if got[0] != 3.5 {
			return fmt.Errorf("rank %d reads %g, want 3.5", c.Rank(), got[0])
		}
		// A late opener sees the agreed count on disk after sync.
		if err := d.Sync(); err != nil {
			return err
		}
		r, err := Open(c, fsys, "stale.nc", nctype.NoWrite, nil)
		if err != nil {
			return err
		}
		if r.NumRecs() != 7 {
			return fmt.Errorf("late opener sees NumRecs=%d, want 7", r.NumRecs())
		}
		if err := r.Close(); err != nil {
			return err
		}
		return d.Close()
	})
}

func TestRenameParallel(t *testing.T) {
	fsys := testFS()
	runWorld(t, 3, func(c *mpi.Comm) error {
		d, flux, _, err := createStandard(c, fsys, "ren.nc")
		if err != nil {
			return err
		}
		// Data-mode shrink is fine; growth requires define mode.
		if err := d.RenameVar(flux, "f"); err != nil {
			return err
		}
		if err := d.RenameVar(d.VarID("f"), "heat_flux_density"); !errors.Is(err, nctype.ErrNotInDefine) {
			return fmt.Errorf("grow in data mode: %v", err)
		}
		if err := d.Redef(); err != nil {
			return err
		}
		if err := d.RenameVar(d.VarID("f"), "heat_flux_density"); err != nil {
			return err
		}
		if err := d.RenameDim(d.DimID("x"), "longitude"); err != nil {
			return err
		}
		if err := d.RenameAttr(GlobalID, "source", "provenance"); err != nil {
			return err
		}
		if err := d.EndDef(); err != nil {
			return err
		}
		if err := d.Close(); err != nil {
			return err
		}
		r, err := Open(c, fsys, "ren.nc", nctype.NoWrite, nil)
		if err != nil {
			return err
		}
		if r.VarID("heat_flux_density") < 0 || r.DimID("longitude") < 0 {
			return errors.New("parallel renames not persisted")
		}
		if _, _, err := r.GetAttr(GlobalID, "provenance"); err != nil {
			return err
		}
		return r.Close()
	})
}

func TestStridedRecordAccessParallel(t *testing.T) {
	// Strided access over the record dimension (the interleaved layout's
	// hard case) through the collective path.
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		d, flux, _, err := createStandard(c, fsys, "strrec.nc")
		if err != nil {
			return err
		}
		// Write 6 records collectively, Y-split.
		for rec := int64(0); rec < 6; rec++ {
			buf := make([]float64, 2*8)
			for i := range buf {
				buf[i] = float64(rec*100) + float64(c.Rank()*10) + float64(i)
			}
			if err := d.PutVaraAll(flux, []int64{rec, int64(c.Rank() * 2), 0}, []int64{1, 2, 8}, buf); err != nil {
				return err
			}
		}
		// Read every other record with one strided collective get.
		got := make([]float64, 3*2*8)
		if err := d.GetVarsAll(flux, []int64{0, int64(c.Rank() * 2), 0},
			[]int64{3, 2, 8}, []int64{2, 1, 1}, got); err != nil {
			return err
		}
		for r := 0; r < 3; r++ {
			rec := int64(r * 2)
			if got[r*16] != float64(rec*100)+float64(c.Rank()*10) {
				return fmt.Errorf("strided record %d = %v", rec, got[r*16])
			}
		}
		return d.Close()
	})
}

func TestPutGetVarAllWholeRecordVariable(t *testing.T) {
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		d, flux, _, err := createStandard(c, fsys, "whole.nc")
		if err != nil {
			return err
		}
		// Rank 0 writes the whole variable (3 records inferred); rank 1
		// participates with a zero-record share of the same shape family.
		n := 3 * 4 * 8
		if c.Rank() == 0 {
			buf := make([]float64, n)
			for i := range buf {
				buf[i] = float64(i) + 0.25
			}
			if err := d.PutVarAll(flux, buf); err != nil {
				return err
			}
		} else {
			if err := d.PutVaraAll(flux, []int64{0, 0, 0}, []int64{0, 0, 0}, nil); err != nil {
				return err
			}
		}
		if d.NumRecs() != 3 {
			return fmt.Errorf("rank %d: NumRecs = %d", c.Rank(), d.NumRecs())
		}
		got := make([]float64, n)
		if err := d.GetVarAll(flux, got); err != nil {
			return err
		}
		if got[n-1] != float64(n-1)+0.25 {
			return fmt.Errorf("last = %v", got[n-1])
		}
		return d.Close()
	})
}

func TestHeaderGrowthProbeOnOpen(t *testing.T) {
	// A parallel open of a file whose header exceeds the 64 KiB first probe.
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		d, err := Create(c, fsys, "bighdr.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		x, _ := d.DefDim("x", 2)
		for i := 0; i < 2500; i++ {
			if _, err := d.DefVar(fmt.Sprintf("variable_with_a_long_descriptive_name_%05d", i),
				nctype.Double, []int{x}); err != nil {
				return err
			}
		}
		if err := d.Close(); err != nil {
			return err
		}
		r, err := Open(c, fsys, "bighdr.nc", nctype.NoWrite, nil)
		if err != nil {
			return err
		}
		if r.NumVars() != 2500 {
			return fmt.Errorf("NumVars = %d", r.NumVars())
		}
		return r.Close()
	})
}

// TestDefinitionLimits: cdf.Decode refuses more than MaxVars variables,
// MaxDims dimensions (in the file or on one variable) or MaxAttrs attributes
// in one list, so DefVar, DefDim and PutAttr refuse them first, at the call,
// with the same typed error on every rank: a dataset at the limits goes
// through Close and Open, and the one beyond them cannot be created.
func TestDefinitionLimits(t *testing.T) {
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		d, err := Create(c, fsys, "limits.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		x, err := d.DefDim("x", 2)
		if err != nil {
			return err
		}
		all := []int{x}
		for i := 1; i < nctype.MaxDims; i++ {
			id, err := d.DefDim(fmt.Sprintf("d%d", i), 1)
			if err != nil {
				return fmt.Errorf("dimension %d of %d: %w", i+1, nctype.MaxDims, err)
			}
			all = append(all, id)
		}
		if _, err := d.DefDim("one_too_many", 1); !errors.Is(err, nctype.ErrMaxDims) {
			return fmt.Errorf("rank %d, dimension %d: err = %v, want ErrMaxDims", c.Rank(), nctype.MaxDims+1, err)
		}
		if _, err := d.DefVar("too_wide", nctype.Byte, append([]int{x}, all...)); !errors.Is(err, nctype.ErrMaxDims) {
			return fmt.Errorf("rank %d, variable of %d dimensions: err = %v, want ErrMaxDims at the call", c.Rank(), nctype.MaxDims+1, err)
		}
		if _, err := d.DefVar("widest", nctype.Byte, all); err != nil {
			return fmt.Errorf("variable of %d dimensions: %w", nctype.MaxDims, err)
		}
		for i := 1; i < nctype.MaxVars; i++ {
			if _, err := d.DefVar(fmt.Sprintf("v%d", i), nctype.Byte, []int{x}); err != nil {
				return fmt.Errorf("variable %d of %d: %w", i+1, nctype.MaxVars, err)
			}
		}
		if _, err := d.DefVar("one_too_many", nctype.Byte, []int{x}); !errors.Is(err, nctype.ErrMaxVars) {
			return fmt.Errorf("rank %d, variable %d: err = %v, want ErrMaxVars", c.Rank(), nctype.MaxVars+1, err)
		}
		for i := 0; i < nctype.MaxAttrs; i++ {
			if err := d.PutAttr(GlobalID, fmt.Sprintf("a%d", i), nctype.Byte, []int8{1}); err != nil {
				return fmt.Errorf("attribute %d of %d: %w", i+1, nctype.MaxAttrs, err)
			}
		}
		if err := d.PutAttr(GlobalID, "one_too_many", nctype.Byte, []int8{1}); !errors.Is(err, nctype.ErrMaxAttrs) {
			return fmt.Errorf("rank %d, attribute %d: err = %v, want ErrMaxAttrs", c.Rank(), nctype.MaxAttrs+1, err)
		}
		if err := d.Close(); err != nil {
			return err
		}
		r, err := Open(c, fsys, "limits.nc", nctype.NoWrite, nil)
		if err != nil {
			return fmt.Errorf("reopen at the limits: %w", err)
		}
		if r.NumVars() != nctype.MaxVars || len(r.Header().GAttrs) != nctype.MaxAttrs || len(r.Header().Dims) != nctype.MaxDims {
			return fmt.Errorf("reopened %d variables, %d global attributes and %d dimensions, want %d, %d and %d",
				r.NumVars(), len(r.Header().GAttrs), len(r.Header().Dims), nctype.MaxVars, nctype.MaxAttrs, nctype.MaxDims)
		}
		return r.Close()
	})
}
