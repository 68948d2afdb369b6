package integration

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pnetcdf/internal/cdf"
	"pnetcdf/internal/core"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
)

// "Blocking ≡ queued" as a checked property (DESIGN.md §16): core has one data
// path, so how a program spells its accesses — blocking calls, IPutVara /
// IGetVara completed by one WaitAll, or any interleaving of the two — may
// change neither the file, nor what a read returns, nor the error a rank gets
// back, nor the pnetcdf counters. A scenario is generated from one seed;
// FuzzBlockingEquivalentToQueued's seeds run in tier-1, a failure names its
// seed, and
//
//	go test ./internal/integration -run '^$' -fuzz FuzzBlockingEquivalentToQueued -fuzztime 200x
//
// tries 200 more (a failing one is kept under testdata/fuzz as a regression
// case, which is also how to replay a seed by hand).

// onePathOp is one vara access. Puts carry their values; a get's expected
// values and every op's expected error come from the serial library.
type onePathOp struct {
	v            int
	start, count []int64
	vals         []int32
	class        string
}

type onePathScenario struct {
	seed  int64
	dims  []int64 // fixed dimensions; the record dimension comes first in the file
	types []nctype.Type
	vdims [][]int // per variable: indices into dims; -1 is the record dimension
	puts  []onePathOp
	gets  []onePathOp
}

// onePathLib is what the scenario needs of either library to define itself.
type onePathLib interface {
	DefDim(name string, size int64) (int, error)
	DefVar(name string, t nctype.Type, dimids []int) (int, error)
	EndDef() error
}

func (sc *onePathScenario) define(d onePathLib) error {
	rec, err := d.DefDim("t", 0)
	if err != nil {
		return err
	}
	ids := make([]int, len(sc.dims))
	for i, n := range sc.dims {
		if ids[i], err = d.DefDim(fmt.Sprintf("d%d", i), n); err != nil {
			return err
		}
	}
	for v, vd := range sc.vdims {
		dimids := make([]int, len(vd))
		for i, k := range vd {
			if dimids[i] = rec; k >= 0 {
				dimids[i] = ids[k]
			}
		}
		if _, err := d.DefVar(fmt.Sprintf("v%d", v), sc.types[v], dimids); err != nil {
			return err
		}
	}
	return d.EndDef()
}

// errClass folds an error into what the three executions must agree on.
func errClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, cdf.ErrRange):
		return "range"
	case errors.Is(err, nctype.ErrEdge):
		return "edge"
	}
	return "other: " + err.Error()
}

// splitBox cuts the index box (start, count) into at most k disjoint boxes
// that cover it.
func splitBox(rng *rand.Rand, start, count []int64, k int) [][2][]int64 {
	boxes := [][2][]int64{{start, count}}
	for len(boxes) < k {
		i := rng.Intn(len(boxes))
		b := boxes[i]
		dim := rng.Intn(len(b[1]))
		if b[1][dim] < 2 {
			break
		}
		cut := 1 + rng.Int63n(b[1][dim]-1)
		lo := [2][]int64{b[0], slices.Clone(b[1])}
		hi := [2][]int64{slices.Clone(b[0]), slices.Clone(b[1])}
		lo[1][dim] = cut
		hi[0][dim] += cut
		hi[1][dim] -= cut
		boxes[i] = lo
		boxes = append(boxes, hi)
	}
	return boxes
}

func elems(count []int64) int64 {
	n := int64(1)
	for _, c := range count {
		n *= c
	}
	return n
}

// newOnePathScenario draws a schema (fixed and record variables of three or
// more external types, the last of them a vector long enough that the largest
// of the at most five puts tiling it spans more than onePathStaging bytes of
// file whatever its type), puts that tile every variable with disjoint boxes
// and gets that tile a random part of each. Even seeds give one put values out of
// its type's range; every third seed adds a put that grows the record count
// from a single rank and a get beyond even the grown count.
func newOnePathScenario(seed int64) *onePathScenario {
	rng := rand.New(rand.NewSource(seed))
	sc := &onePathScenario{seed: seed}
	for i, nd := 0, 2+rng.Intn(2); i < nd; i++ {
		sc.dims = append(sc.dims, int64(2+rng.Intn(9)))
	}
	types := []nctype.Type{nctype.Byte, nctype.Short, nctype.Int, nctype.Float, nctype.Double}
	rng.Shuffle(len(types), func(i, j int) { types[i], types[j] = types[j], types[i] })
	nrecs := int64(1 + rng.Intn(3))
	nvars := 3 + rng.Intn(3)
	shapes := make([][]int64, nvars)
	lastRecVar := -1
	for v := 0; v < nvars; v++ {
		sc.types = append(sc.types, types[v%len(types)]) // >= 3 distinct
		var vd []int
		var shape []int64
		if v == 0 || rng.Intn(2) == 0 { // variable 0 is always a record variable
			vd, shape, lastRecVar = append(vd, -1), append(shape, nrecs), v
		}
		for _, k := range rng.Perm(len(sc.dims))[:1+rng.Intn(len(sc.dims))] {
			vd, shape = append(vd, k), append(shape, sc.dims[k])
		}
		sc.vdims, shapes[v] = append(sc.vdims, vd), shape
	}
	long := 5*onePathStaging + 1 + rng.Int63n(onePathStaging)
	sc.types = append(sc.types, types[nvars%len(types)])
	sc.vdims = append(sc.vdims, []int{len(sc.dims)})
	sc.dims, shapes = append(sc.dims, long), append(shapes, []int64{long})
	value := func(v int, i int64) int32 { return int32((int64(v)*31 + i*7) % 100) }
	for v, shape := range shapes {
		for _, b := range splitBox(rng, make([]int64, len(shape)), shape, 1+rng.Intn(5)) {
			op := onePathOp{v: v, start: b[0], count: b[1], vals: make([]int32, elems(b[1]))}
			for i := range op.vals {
				op.vals[i] = value(v, int64(len(sc.puts))*1000+int64(i))
			}
			sc.puts = append(sc.puts, op)
		}
		part := splitBox(rng, make([]int64, len(shape)), shape, 2+rng.Intn(3))
		for _, b := range part[:1+rng.Intn(len(part))] {
			sc.gets = append(sc.gets, onePathOp{v: v, start: b[0], count: b[1]})
		}
	}
	if seed%2 == 0 {
		// Beyond Byte and Short, inside the rest: whether this is NC_ERANGE
		// depends on the variable's type, which is the serial library's call.
		op := &sc.puts[rng.Intn(len(sc.puts))]
		for i := range op.vals {
			op.vals[i] += 100000
		}
	}
	if seed%3 == 0 {
		shape := slices.Clone(shapes[lastRecVar])
		shape[0] = 1
		start := make([]int64, len(shape))
		start[0] = nrecs
		sc.puts = append(sc.puts, onePathOp{v: lastRecVar, start: start, count: shape, vals: make([]int32, elems(shape))})
		beyond := slices.Clone(start)
		beyond[0] = nrecs + 2
		sc.gets = append(sc.gets, onePathOp{v: lastRecVar, start: beyond, count: shape})
	}
	rng.Shuffle(len(sc.puts), func(i, j int) { sc.puts[i], sc.puts[j] = sc.puts[j], sc.puts[i] })
	rng.Shuffle(len(sc.gets), func(i, j int) { sc.gets[i], sc.gets[j] = sc.gets[j], sc.gets[i] })
	return sc
}

// serial runs the scenario through internal/netcdf: it fills in every op's
// expected error class and every get's expected values, and returns the file.
func (sc *onePathScenario) serial() ([]byte, error) {
	store := &netcdf.MemStore{}
	d, err := netcdf.Create(store, nctype.Clobber)
	if err != nil {
		return nil, err
	}
	if err := sc.define(d); err != nil {
		return nil, err
	}
	for i := range sc.puts {
		op := &sc.puts[i]
		op.class = errClass(d.PutVara(op.v, op.start, op.count, op.vals))
	}
	for i := range sc.gets {
		op := &sc.gets[i]
		op.vals = make([]int32, elems(op.count))
		op.class = errClass(d.GetVara(op.v, op.start, op.count, op.vals))
	}
	return store.Data, d.Close()
}

// onePathResult is what one rank observed in one execution.
type onePathResult struct {
	class     string    // first error class returned, in return order
	reads     [][]int32 // by get index; nil for another rank's gets
	counters  [4]int64  // nc_coll_puts, nc_coll_gets, nc_bytes_put, nc_bytes_got
	pipelined int64     // io_pipelined_rounds: nonzero iff some collective took several rounds
}

// onePathStaging is the cb_buffer_size of the many-rounds executions (the
// smallest the hint accepts).
const onePathStaging = 4096

// The three ways to spell the same accesses.
const (
	allBlocking = iota
	allQueued   // every put and get queued, one WaitAll
	interleaved // per round blocking or queued, WaitAll now and then
	numWays
)

// run executes the scenario on nranks ranks. Op i belongs to rank i % nranks;
// the ops go in rounds of one per rank, and a rank with none left joins the
// round with an empty access, as the collective calls require.
func (sc *onePathScenario) run(t *testing.T, nranks, way int, info *mpi.Info) ([]byte, []onePathResult, error) {
	fsys := newFS()
	results := make([]onePathResult, nranks)
	err := mpi.Run(nranks, mpi.DefaultNet(), func(c *mpi.Comm) error {
		st := iostat.New()
		c.Proc().SetStats(st)
		d, err := core.Create(c, fsys, "onepath.nc", nctype.Clobber, info)
		if err != nil {
			return err
		}
		if err := sc.define(d); err != nil {
			return err
		}
		res := &results[c.Rank()]
		res.reads = make([][]int32, len(sc.gets))
		note := func(err error) {
			if res.class == "" {
				res.class = errClass(err)
			}
		}
		// The schedule is drawn identically on every rank: collective calls
		// must match across ranks.
		sched := rand.New(rand.NewSource(sc.seed ^ 0x5eed))
		phase := func(ops []onePathOp, write bool) {
			for base := 0; base < len(ops); base += nranks {
				op := onePathOp{v: 0, start: make([]int64, len(sc.vdims[0])), count: make([]int64, len(sc.vdims[0]))}
				var data any
				if i := base + c.Rank(); i < len(ops) {
					if op = ops[i]; write {
						data = op.vals
					} else {
						res.reads[i] = make([]int32, len(op.vals))
						data = res.reads[i]
					}
				}
				queue := way == allQueued || way == interleaved && sched.Intn(2) == 0
				switch {
				case write && queue:
					_, err = d.IPutVara(op.v, op.start, op.count, data)
				case write:
					err = d.PutVaraAll(op.v, op.start, op.count, data)
				case queue:
					_, err = d.IGetVara(op.v, op.start, op.count, data)
				default:
					err = d.GetVaraAll(op.v, op.start, op.count, data)
				}
				note(err)
				if way == interleaved && sched.Intn(3) == 0 {
					note(d.WaitAll())
				}
			}
			// A blocking get of a variable with a queued put is refused, so
			// the interleaved way lands its puts before it starts to read.
			if way == interleaved {
				note(d.WaitAll())
			}
		}
		phase(sc.puts, true)
		phase(sc.gets, false)
		if way == allQueued {
			note(d.WaitAll())
		}
		for i, k := range []iostat.Counter{iostat.NCCollPuts, iostat.NCCollGets, iostat.NCBytesPut, iostat.NCBytesGot} {
			res.counters[i] = st.Get(k)
		}
		res.pipelined = st.Get(iostat.IOPipelinedRounds)
		return d.Close()
	})
	if err != nil {
		return nil, nil, err
	}
	return readPFSFile(t, fsys, "onepath.nc"), results, nil
}

// check runs the scenario every way at every rank count and hint setting and
// compares: the files with each other and with the serial library's, the
// reads with the serial library's, and per rank the error class and the
// counters of the three ways with each other (and the class with the first
// one the rank's own ops raise serially).
func (sc *onePathScenario) check(t *testing.T) error {
	want, err := sc.serial()
	if err != nil {
		return fmt.Errorf("seed %d: serial reference: %w", sc.seed, err)
	}
	var first []byte
	for nranks := 1; nranks <= 4; nranks++ {
		for _, manyRounds := range []bool{false, true} {
			info := mpi.NewInfo()
			if manyRounds {
				info.Set("cb_buffer_size", fmt.Sprint(onePathStaging)).Set("cb_nodes", "1")
			}
			var ref []onePathResult
			for way := 0; way < numWays; way++ {
				where := fmt.Sprintf("seed %d, %d ranks, many rounds %v, way %d", sc.seed, nranks, manyRounds, way)
				img, results, err := sc.run(t, nranks, way, info)
				if err != nil {
					return fmt.Errorf("%s: %w", where, err)
				}
				if first == nil {
					first = img
					// The parallel commit journals the header past the data and
					// erases it, so its file may end in zeros the serial one lacks.
					n := min(len(img), len(want))
					if !bytes.Equal(img[:n], want[:n]) || len(bytes.Trim(img[n:], "\x00"))+len(bytes.Trim(want[n:], "\x00")) != 0 {
						return fmt.Errorf("%s: file differs from the serial library's", where)
					}
				}
				if !bytes.Equal(img, first) {
					return fmt.Errorf("%s: file differs from the first execution's", where)
				}
				if manyRounds && results[0].pipelined == 0 {
					return fmt.Errorf("%s: no collective took more than one round", where)
				}
				for rank, res := range results {
					class := ""
					for _, ops := range [][]onePathOp{sc.puts, sc.gets} {
						for i := rank; i < len(ops) && class == ""; i += nranks {
							class = ops[i].class
						}
					}
					if res.class != class {
						return fmt.Errorf("%s: rank %d returned error class %q, the serial library %q", where, rank, res.class, class)
					}
					for i, got := range res.reads {
						if got != nil && sc.gets[i].class == "" && !slices.Equal(got, sc.gets[i].vals) {
							return fmt.Errorf("%s: rank %d get %d (v%d %v+%v) = %v, want %v",
								where, rank, i, sc.gets[i].v, sc.gets[i].start, sc.gets[i].count, got, sc.gets[i].vals)
						}
					}
					if way > 0 && res.counters != ref[rank].counters {
						return fmt.Errorf("%s: rank %d counters %v, blocking %v", where, rank, res.counters, ref[rank].counters)
					}
				}
				if way == 0 {
					ref = results
				}
			}
		}
	}
	return nil
}

func FuzzBlockingEquivalentToQueued(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := newOnePathScenario(seed).check(t); err != nil {
			t.Fatal(err)
		}
	})
}
