package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"pnetcdf/internal/fault"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/span"
)

// One prefetch policy (DESIGN.md §16): whether a read is served from the
// nc_prefetch_vars copy is a per-rank fact, whether the file is read is an
// agreed one. Blocking and queued reads must behave alike in every cache
// state — all ranks cached, one rank's copy invalidated by its own
// independent write, no rank cached — and a rank never skips a collective
// read its cache-miss peer enters (the blocking/diverged cell aborted the
// world before the decision rode in the agreement reduction).
func TestPrefetchPolicyOneAnswer(t *testing.T) {
	const reads = 50
	oldRow := []int32{0, 7, 14, 21, 28, 35, 42, 49}
	newRow := []int32{-1, -2, -3, -4, -5, -6, -7, -8}
	type cell struct {
		name       string
		hint       bool
		invalidate bool // rank 0 overwrites row 0 independently, dropping its copy only
		collReads  int64
	}
	cells := []cell{
		{"all-cached", true, false, 0},
		{"one-invalidated", true, true, reads},
		{"none-cached", false, false, reads},
	}
	for _, queued := range []bool{false, true} {
		for _, tc := range cells {
			t.Run(fmt.Sprintf("queued=%v/%s", queued, tc.name), func(t *testing.T) {
				fsys := testFS()
				runWorld(t, 2, func(c *mpi.Comm) error {
					d, _, grid, err := createStandard(c, fsys, "pf.nc")
					if err != nil {
						return err
					}
					vals := make([]int32, 32)
					for i := range vals {
						vals[i] = int32(i * 7)
					}
					if err := d.PutVaraAll(grid, []int64{0, 0}, []int64{4, 8}, vals); err != nil {
						return err
					}
					if err := d.Close(); err != nil {
						return err
					}
					st := iostat.New()
					c.Proc().SetStats(st)
					info := mpi.NewInfo()
					if tc.hint {
						info.Set("nc_prefetch_vars", "grid")
					}
					r, err := Open(c, fsys, "pf.nc", nctype.Write, info)
					if err != nil {
						return err
					}
					want := oldRow
					if tc.invalidate {
						if err := r.BeginIndepData(); err != nil {
							return err
						}
						if c.Rank() == 0 {
							if err := r.PutVara(grid, []int64{0, 0}, []int64{1, 8}, newRow); err != nil {
								return err
							}
							want = newRow // the writer reads the file; its peer keeps its copy
						}
						if err := r.EndIndepData(); err != nil {
							return err
						}
					}
					t0, base := c.Clock(), st.Get(iostat.IOCollReadCalls)
					got := make([]int32, 8)
					for i := 0; i < reads; i++ {
						clear(got)
						if queued {
							if _, err := r.IGetVara(grid, []int64{0, 0}, []int64{1, 8}, got); err != nil {
								return err
							}
							err = r.WaitAll()
						} else {
							err = r.GetVaraAll(grid, []int64{0, 0}, []int64{1, 8}, got)
						}
						if err != nil {
							return fmt.Errorf("rank %d read %d: %w", c.Rank(), i, err)
						}
						if !slices.Equal(got, want) {
							return fmt.Errorf("rank %d read %d = %v, want %v", c.Rank(), i, got, want)
						}
					}
					if n := st.Get(iostat.IOCollReadCalls) - base; n != tc.collReads {
						return fmt.Errorf("rank %d entered %d collective reads, want %d", c.Rank(), n, tc.collReads)
					}
					if cost := c.Clock() - t0; tc.collReads == 0 && cost > 0.01 {
						return fmt.Errorf("rank %d: %d cached reads cost %.4fs of virtual time", c.Rank(), reads, cost)
					}
					return r.Close()
				})
			})
		}
	}
}

// A read into memory its variable cannot be decoded into fails in prepare,
// on every rank, before anything collective — including on a rank its
// prefetched copy would have served. Otherwise the cached rank fails its
// decode and returns while its peer, whose copy its own write dropped, enters
// the collective read alone (the world aborted there, blocking and queued).
func TestPrefetchedReadWrongMemoryType(t *testing.T) {
	for _, queued := range []bool{false, true} {
		t.Run(fmt.Sprintf("queued=%v", queued), func(t *testing.T) {
			fsys := testFS()
			runWorld(t, 2, func(c *mpi.Comm) error {
				d, err := Create(c, fsys, "pfchar.nc", nctype.Clobber, nil)
				if err != nil {
					return err
				}
				x, _ := d.DefDim("x", 8)
				name, _ := d.DefVar("name", nctype.Char, []int{x})
				if err := d.EndDef(); err != nil {
					return err
				}
				if err := d.PutVaraAll(name, []int64{0}, []int64{8}, []byte("abcdefgh")); err != nil {
					return err
				}
				if err := d.Close(); err != nil {
					return err
				}
				r, err := Open(c, fsys, "pfchar.nc", nctype.Write, mpi.NewInfo().Set("nc_prefetch_vars", "name"))
				if err != nil {
					return err
				}
				if err := r.BeginIndepData(); err != nil {
					return err
				}
				want := "abcdefgh"
				if c.Rank() == 1 {
					if err := r.PutVara(name, []int64{0}, []int64{4}, []byte("wxyz")); err != nil {
						return err
					}
					want = "wxyzefgh" // the writer reads the file; its peer keeps its copy
				}
				if err := r.EndIndepData(); err != nil {
					return err
				}
				wrong := make([]float64, 8)
				if queued {
					if _, err = r.IGetVara(name, []int64{0}, []int64{8}, wrong); err == nil {
						err = r.WaitAll()
					}
				} else {
					err = r.GetVaraAll(name, []int64{0}, []int64{8}, wrong)
				}
				if !errors.Is(err, nctype.ErrTypeMismatch) {
					return fmt.Errorf("rank %d: read of Char into []float64: %v, want ErrTypeMismatch", c.Rank(), err)
				}
				got := make([]byte, 8)
				if err := r.GetVaraAll(name, []int64{0}, []int64{8}, got); err != nil {
					return err
				}
				if string(got) != want {
					return fmt.Errorf("rank %d read %q, want %q", c.Rank(), got, want)
				}
				return r.Close()
			})
		})
	}
}

// The same op list issued blocking and queued books the same pnetcdf
// counters, and in both the put bytes equal what MPI-IO was handed (the
// -stats self-check). Queued ops used to book nothing.
func TestLedgerClosesForQueuedOps(t *testing.T) {
	counters := []iostat.Counter{iostat.NCCollPuts, iostat.NCCollGets, iostat.NCBytesPut, iostat.NCBytesGot}
	var legs [2][2][]int64 // [queued][rank] -> counters
	for q, queued := range []bool{false, true} {
		fsys := testFS()
		runWorld(t, 2, func(c *mpi.Comm) error {
			st := iostat.New()
			c.Proc().SetStats(st)
			d, flux, grid, err := createStandard(c, fsys, "ledger.nc")
			if err != nil {
				return err
			}
			row := []int64{int64(2 * c.Rank()), 0}
			put := func(varid int, start, count []int64, data any) error {
				if queued {
					_, err := d.IPutVara(varid, start, count, data)
					return err
				}
				return d.PutVaraAll(varid, start, count, data)
			}
			get := func(varid int, start, count []int64, data any) error {
				if queued {
					_, err := d.IGetVara(varid, start, count, data)
					return err
				}
				return d.GetVaraAll(varid, start, count, data)
			}
			if err := put(grid, row, []int64{2, 8}, make([]int32, 16)); err != nil {
				return err
			}
			if err := put(flux, []int64{int64(c.Rank()), 0, 0}, []int64{1, 4, 8}, make([]float64, 32)); err != nil {
				return err
			}
			if err := d.WaitAll(); err != nil { // lands the queued puts; empty in the blocking leg
				return err
			}
			if err := get(grid, row, []int64{1, 8}, make([]int32, 8)); err != nil {
				return err
			}
			if err := d.WaitAll(); err != nil {
				return err
			}
			if put, wrote := st.Get(iostat.NCBytesPut), st.Get(iostat.IOBytesWritten); put != wrote || put == 0 {
				return fmt.Errorf("rank %d queued=%v: nc_bytes_put=%d, io_bytes_written=%d", c.Rank(), queued, put, wrote)
			}
			if got, read := st.Get(iostat.NCBytesGot), st.Get(iostat.IOBytesRead); got != read || got == 0 {
				return fmt.Errorf("rank %d queued=%v: nc_bytes_got=%d, io_bytes_read=%d", c.Rank(), queued, got, read)
			}
			for _, k := range counters {
				legs[q][c.Rank()] = append(legs[q][c.Rank()], st.Get(k))
			}
			return d.Close()
		})
	}
	for rank := range legs[0] {
		if !slices.Equal(legs[0][rank], legs[1][rank]) {
			t.Errorf("rank %d: puts/gets/bytes_put/bytes_got blocking %v, queued %v", rank, legs[0][rank], legs[1][rank])
		}
	}
}

// A one-put batch is the blocking put: the same number of MPI collectives and
// no collective read (a write-only WaitAll used to add an empty one).
func TestOnePutBatchCostsOneBlockingPut(t *testing.T) {
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		st := iostat.New()
		c.Proc().SetStats(st)
		d, _, grid, err := createStandard(c, fsys, "oneput.nc")
		if err != nil {
			return err
		}
		row, count, vals := []int64{int64(2 * c.Rank()), 0}, []int64{2, 8}, make([]int32, 16)
		base := st.Get(iostat.MPICollectives)
		if err := d.PutVaraAll(grid, row, count, vals); err != nil {
			return err
		}
		blocking := st.Get(iostat.MPICollectives) - base
		base, reads := st.Get(iostat.MPICollectives), st.Get(iostat.IOCollReadCalls)
		if _, err := d.IPutVara(grid, row, count, vals); err != nil {
			return err
		}
		if err := d.WaitAll(); err != nil {
			return err
		}
		if batch := st.Get(iostat.MPICollectives) - base; batch != blocking {
			return fmt.Errorf("rank %d: one-put batch issued %d MPI collectives, the blocking put %d", c.Rank(), batch, blocking)
		}
		if n := st.Get(iostat.IOCollReadCalls) - reads; n != 0 {
			return fmt.Errorf("rank %d: write-only batch entered %d collective reads", c.Rank(), n)
		}
		return d.Close()
	})
}

// checkCompletionSpans asserts the shape a completion's spans take, blocking or
// queued: encode and view_resolve sit directly under an nc_put or nc_get, the
// MPI-IO collective spans likewise, and nothing is left open. It returns the
// number of nc_put and nc_get spans.
func checkCompletionSpans(rank int, rec *span.Recorder) (puts, gets int, err error) {
	if n := rec.Open(); n != 0 {
		return 0, 0, fmt.Errorf("rank %d: %d spans left open", rank, n)
	}
	spans := rec.Spans()
	byID := make(map[int64]span.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		parent := byID[s.Parent].Phase
		switch s.Phase {
		case span.NCPut:
			puts++
		case span.NCGet:
			gets++
		case span.Encode, span.ViewResolve, span.CollWrite, span.CollRead:
			if parent != span.NCPut && parent != span.NCGet {
				return 0, 0, fmt.Errorf("rank %d: %s span under %q, want under nc_put/nc_get", rank, s.Phase, parent)
			}
		}
	}
	return puts, gets, nil
}

// A queued batch records what the blocking calls record: one nc_put (and one
// nc_get) per completion with encode and view_resolve children — and closes
// every span when the batch is refused or its write fails.
func TestQueuedBatchSpanShape(t *testing.T) {
	fsys := testFS()
	runWorld(t, 2, func(c *mpi.Comm) error {
		rec := span.NewRecorder(c.Rank(), c.Proc().Clock)
		c.Proc().SetSpans(rec)
		d, flux, grid, err := createStandard(c, fsys, "spans.nc")
		if err != nil {
			return err
		}
		row := []int64{int64(2 * c.Rank()), 0}
		rec.Reset()
		// Two puts and a get in one batch.
		if _, err := d.IPutVara(grid, row, []int64{2, 8}, make([]int32, 16)); err != nil {
			return err
		}
		if _, err := d.IPutVara(flux, []int64{int64(c.Rank()), 0, 0}, []int64{1, 4, 8}, make([]float64, 32)); err != nil {
			return err
		}
		if _, err := d.IGetVara(grid, []int64{3 - row[0], 0}, []int64{1, 8}, make([]int32, 8)); err != nil {
			return err
		}
		if err := d.WaitAll(); err != nil {
			return err
		}
		puts, gets, err := checkCompletionSpans(c.Rank(), rec)
		if err != nil {
			return err
		}
		if puts != 1 || gets != 1 {
			return fmt.Errorf("rank %d: batch recorded %d nc_put and %d nc_get spans, want 1 and 1", c.Rank(), puts, gets)
		}
		children := map[string]int{}
		for _, s := range rec.Spans() {
			children[s.Phase]++
		}
		if children[span.Encode] != 2 || children[span.ViewResolve] != 2 {
			return fmt.Errorf("rank %d: %d encode and %d view_resolve spans, want 2 and 2 (one per direction)",
				c.Rank(), children[span.Encode], children[span.ViewResolve])
		}
		// Error path 1: a refused batch (overlap on rank 0).
		rec.Reset()
		if _, err := d.IPutVara(grid, row, []int64{2, 8}, make([]int32, 16)); err != nil {
			return err
		}
		if c.Rank() == 0 {
			if _, err := d.IPutVara(grid, []int64{1, 0}, []int64{1, 8}, make([]int32, 8)); err != nil {
				return err
			}
		}
		if err := d.WaitAll(); err == nil {
			return errors.New("overlapping batch accepted")
		}
		if _, _, err := checkCompletionSpans(c.Rank(), rec); err != nil {
			return fmt.Errorf("refused batch: %w", err)
		}
		// Error path 2: the fused write fails in the file system.
		c.Barrier()
		if c.Rank() == 0 {
			fsys.SetFault(fault.New(fault.Config{Seed: 5, WriteErrRate: 1}))
		}
		c.Barrier()
		rec.Reset()
		if _, err := d.IPutVara(grid, row, []int64{2, 8}, make([]int32, 16)); err != nil {
			return err
		}
		if err := d.WaitAll(); err == nil {
			return errors.New("WaitAll with failing writes returned nil")
		}
		if _, _, err := checkCompletionSpans(c.Rank(), rec); err != nil {
			return fmt.Errorf("failed write: %w", err)
		}
		c.Barrier()
		if c.Rank() == 0 {
			fsys.SetFault(nil)
		}
		c.Barrier()
		return d.Close()
	})
}
