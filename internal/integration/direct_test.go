package integration

import (
	"bytes"
	"fmt"
	"testing"

	"pnetcdf/internal/access"
	"pnetcdf/internal/core"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/pfs"
)

// Every put and get converts between user memory and MPI-IO's messages piece
// by piece (DESIGN.md §3): one op through its own codec, a batch of ops
// through the merged source and sink, which splits each piece MPI-IO asks
// for at the ends of the ops' file extents. TestBlockingDirectMatchesQueued
// holds three ways of spelling the same program — blocking calls, one
// queued op per WaitAll, and every variable's op queued for one WaitAll — to
// the same file and the same user buffers, over contiguous, mapped (imap)
// and flexible (memtype) memory, one, two and many rounds, and every
// cb_nodes from 1 to P. The file system's stripe is 4096 bytes and the
// many-round cb_buffer_size 4100, so round windows cut 8-byte elements in
// two: the write encodes such an element for each piece, and the read puts
// it together from two replies. In a batch, a stretch of one message runs
// from one variable's extent into the next one's.

// directVar is one variable of the scenario: its external type and the Go
// type of the memory it is written from and read into.
type directVar struct {
	t     nctype.Type
	float bool // memory []float64, else []int32
}

var directVars = []directVar{
	{nctype.Double, true},  // identity, 8-byte elements
	{nctype.Float, true},   // converting, 4-byte elements
	{nctype.Short, false},  // converting, 2-byte elements
	{nctype.Double, false}, // converting, 8-byte elements
}

const directRows, directCols = 16, 100 // each rank's block of every variable

// The memory layouts.
const (
	directContig = iota
	directMapped
	directFlexible
)

// directMem describes how one rank's block sits in its memory: the element
// runs of a buffer of size n, in the block's row-major order, and how the
// blocking call names them.
type directMem struct {
	n    int64
	runs []mpitype.Segment
	imap []int64
	typ  mpitype.Datatype
}

func newDirectMem(layout int) (directMem, error) {
	count := []int64{directRows, directCols}
	switch layout {
	case directMapped: // column-major memory
		imap := []int64{1, directRows}
		runs, err := access.MemSegments(count, imap)
		return directMem{n: directRows * directCols, runs: runs, imap: imap}, err
	case directFlexible: // a guard cell around the block
		typ, err := mpitype.Subarray([]int64{directRows + 2, directCols + 2}, count, []int64{1, 1}, 1)
		return directMem{n: (directRows + 2) * (directCols + 2), runs: typ.Runs(), typ: typ}, err
	}
	return directMem{n: directRows * directCols, runs: []mpitype.Segment{{Len: directRows * directCols}}}, nil
}

// gatherRuns and scatterRuns move a block between its memory layout and its
// row-major linear form.
func gatherRuns[T any](mem []T, runs []mpitype.Segment) []T {
	var out []T
	for _, r := range runs {
		out = append(out, mem[r.Off:r.Off+r.Len]...)
	}
	return out
}

func scatterRuns[T any](mem, lin []T, runs []mpitype.Segment) {
	for _, r := range runs {
		lin = lin[copy(mem[r.Off:r.Off+r.Len], lin):]
	}
}

// directBuf is one rank's memory for one variable, filled with its values
// (guard cells and gaps hold a sentinel), or with the sentinel alone.
func directBuf(v directVar, m directMem, rank, varid int, values bool) any {
	if v.float {
		b := make([]float64, m.n)
		for i := range b {
			b[i] = -7.5
		}
		if values {
			lin := make([]float64, directRows*directCols)
			for i := range lin {
				lin[i] = float64(rank*1_000_000+varid*10_000+i) + 0.3
			}
			scatterRuns(b, lin, m.runs)
		}
		return b
	}
	b := make([]int32, m.n)
	for i := range b {
		b[i] = -7
	}
	if values {
		lin := make([]int32, directRows*directCols)
		for i := range lin {
			lin[i] = int32((rank*7919 + varid*131 + i) % 30000)
		}
		scatterRuns(b, lin, m.runs)
	}
	return b
}

// directLinear converts between a rank's memory and the linear buffer the
// queued calls take.
func directLinear(buf any, m directMem) any {
	switch b := buf.(type) {
	case []float64:
		return gatherRuns(b, m.runs)
	case []int32:
		return gatherRuns(b, m.runs)
	}
	panic("unreachable")
}

func directUnlinear(buf, lin any, m directMem) {
	switch b := buf.(type) {
	case []float64:
		scatterRuns(b, lin.([]float64), m.runs)
	case []int32:
		scatterRuns(b, lin.([]int32), m.runs)
	}
}

// The ways a program spells its puts and gets.
const (
	directBlocking = iota // one blocking call per variable
	directQueued          // one queued op per variable, each completed by its own WaitAll
	directBatch           // every variable's op queued, then one WaitAll
)

// runDirect writes and reads back every variable on nranks ranks, one of the
// three ways, and returns the file, every rank's read buffers and the
// two-phase rounds of the largest collective.
func runDirect(t *testing.T, nranks, layout int, info *mpi.Info, way int) ([]byte, [][]any, int64) {
	cfg := pfs.BlueHorizon()
	cfg.StripeSize = 4096
	fsys := pfs.New(cfg)
	m, err := newDirectMem(layout)
	if err != nil {
		t.Fatal(err)
	}
	reads := make([][]any, nranks)
	var rounds int64
	err = mpi.Run(nranks, mpi.DefaultNet(), func(c *mpi.Comm) error {
		st := iostat.New()
		c.Proc().SetStats(st)
		d, err := core.Create(c, fsys, "direct.nc", nctype.Clobber, info)
		if err != nil {
			return err
		}
		rows, _ := d.DefDim("rows", int64(nranks*directRows))
		cols, _ := d.DefDim("cols", directCols)
		for i, v := range directVars {
			if _, err := d.DefVar(fmt.Sprintf("v%d", i), v.t, []int{rows, cols}); err != nil {
				return err
			}
		}
		if err := d.EndDef(); err != nil {
			return err
		}
		start, count := []int64{int64(c.Rank() * directRows), 0}, []int64{directRows, directCols}
		// wait completes the queue after variable i: at once, or after the last.
		wait := func(i int, err error) error {
			if err == nil && (way == directQueued || i == len(directVars)-1) {
				err = d.WaitAll()
			}
			return err
		}
		for i, v := range directVars {
			before := st.Get(iostat.IOTwoPhaseRounds)
			buf := directBuf(v, m, c.Rank(), i, true)
			switch {
			case way != directBlocking:
				_, err = d.IPutVara(i, start, count, directLinear(buf, m))
				err = wait(i, err)
			case layout == directMapped:
				err = d.PutVarmAll(i, start, count, nil, m.imap, buf)
			case layout == directFlexible:
				err = d.PutVaraTypeAll(i, start, count, buf, m.typ)
			default:
				err = d.PutVaraAll(i, start, count, buf)
			}
			if err != nil {
				return fmt.Errorf("put v%d: %w", i, err)
			}
			if c.Rank() == 0 {
				rounds = max(rounds, st.Get(iostat.IOTwoPhaseRounds)-before)
			}
		}
		bufs := make([]any, len(directVars))
		lins := make([]any, len(directVars))
		for i, v := range directVars {
			buf := directBuf(v, m, c.Rank(), i, false)
			bufs[i] = buf
			switch {
			case way != directBlocking:
				lins[i] = directLinear(buf, m)
				_, err = d.IGetVara(i, start, count, lins[i])
				err = wait(i, err)
			case layout == directMapped:
				err = d.GetVarmAll(i, start, count, nil, m.imap, buf)
			case layout == directFlexible:
				err = d.GetVaraTypeAll(i, start, count, buf, m.typ)
			default:
				err = d.GetVaraAll(i, start, count, buf)
			}
			if err != nil {
				return fmt.Errorf("get v%d: %w", i, err)
			}
		}
		for i, buf := range bufs {
			if lins[i] != nil {
				directUnlinear(buf, lins[i], m)
			}
		}
		reads[c.Rank()] = bufs
		return d.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	return readPFSFile(t, fsys, "direct.nc"), reads, rounds
}

func TestBlockingDirectMatchesQueued(t *testing.T) {
	seen := map[string]bool{}
	for _, nranks := range []int{1, 3, 4} {
		for cbNodes := 1; cbNodes <= nranks; cbNodes++ {
			for _, cb := range []string{"16777216", "8200", "4100"} {
				info := mpi.NewInfo().Set("cb_nodes", fmt.Sprint(cbNodes)).Set("cb_buffer_size", cb)
				for layout := directContig; layout <= directFlexible; layout++ {
					where := fmt.Sprintf("%d ranks, cb_nodes %d, cb_buffer_size %s, layout %d", nranks, cbNodes, cb, layout)
					img, reads, rounds := runDirect(t, nranks, layout, info, directBlocking)
					for _, way := range []int{directQueued, directBatch} {
						wantImg, wantReads, _ := runDirect(t, nranks, layout, info, way)
						if !bytes.Equal(img, wantImg) {
							t.Fatalf("%s: blocking puts leave a different file than queued way %d", where, way)
						}
						for r := range reads {
							for i := range reads[r] {
								if fmt.Sprint(reads[r][i]) != fmt.Sprint(wantReads[r][i]) {
									t.Fatalf("%s: rank %d v%d: blocking get fills %v, queued way %d %v", where, r, i, reads[r][i], way, wantReads[r][i])
								}
							}
						}
					}
					switch {
					case rounds == 1:
						seen["1 round"] = true
					case rounds == 2:
						seen["2 rounds"] = true
					default:
						seen["many rounds"] = true
					}
				}
			}
		}
	}
	if len(seen) != 3 {
		t.Fatalf("round counts covered: %v, want 1, 2 and many", seen)
	}
}
