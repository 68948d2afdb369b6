package integration

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pnetcdf/internal/access"
	"pnetcdf/internal/cdf"
	"pnetcdf/internal/core"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
	"pnetcdf/internal/pfs"
)

// The serial-equivalence harness (DESIGN.md §9 has what a seed draws, what
// an execution samples and what is checked). FuzzBlockingEquivalentToQueued's
// seeds run in tier-1 and must together exercise every knob
// (harnessCoverage). A failure names its seed and the sampled
// configuration, and
//
//	go test ./internal/integration -run '^$' -fuzz FuzzBlockingEquivalentToQueued -fuzztime 200x
//
// tries 200 more seeds; a failing one is kept under
// testdata/fuzz/FuzzBlockingEquivalentToQueued as a regression case, which
// is also how to replay a seed by hand.

// harnessStaging is the smallest cb_buffer_size the hint accepts and the
// file system's stripe. cb_buffer_size 4100 and 8200 on that stripe make
// round windows that cut elements in two.
const harnessStaging = 4096

// harnessOp is one vara access. A put carries its values; the oracle fills
// in every op's error class and a get's values.
type harnessOp struct {
	v            int
	start, count []int64
	vals         []float64
}

type scenario struct {
	fill   bool
	dims   []int64 // fixed dimensions; the record dimension comes first in the file
	types  []nctype.Type
	vdims  [][]int       // per variable: indices into dims; -1 is the record dimension
	passes [][]harnessOp // put passes, each complete before the next starts
	gets   []harnessOp
	growth bool // a put grows the record count from one rank
	scalar bool
}

// errClass folds an error into what the executions must agree on.
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
		if len(b[1]) == 0 {
			break
		}
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

// newScenario draws the program of one seed. The last fixed variable is a
// vector long enough that the largest of the at most five puts tiling it
// spans more than one staging buffer whatever its type. Fill-mode seeds
// keep Byte and Short out of the record section and grow no records: the
// serial library fills each new record, padding included, and the parallel
// one leaves records to the caller (cdf.Front.EndDef's Fill).
func newScenario(seed int64) *scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := &scenario{fill: rng.Intn(2) == 0}
	for i, nd := 0, 2+rng.Intn(2); i < nd; i++ {
		sc.dims = append(sc.dims, int64(2+rng.Intn(9)))
	}
	types := []nctype.Type{nctype.Byte, nctype.Short, nctype.Int, nctype.Float, nctype.Double}
	rng.Shuffle(len(types), func(i, j int) { types[i], types[j] = types[j], types[i] })
	nrecs := int64(1 + rng.Intn(3))
	var shapes [][]int64
	lastRecVar := -1
	for v, nvars := 0, 3+rng.Intn(3); v < nvars; v++ {
		t := types[v%len(types)]
		var vd []int
		var shape []int64
		if v == 0 && sc.fill && t.Size() < 4 {
			t = nctype.Double
		}
		if v == 0 || rng.Intn(2) == 0 && !(sc.fill && t.Size() < 4) {
			vd, shape, lastRecVar = append(vd, -1), append(shape, nrecs), v
		}
		for _, k := range rng.Perm(len(sc.dims))[:1+rng.Intn(len(sc.dims))] {
			vd, shape = append(vd, k), append(shape, sc.dims[k])
		}
		sc.types, sc.vdims, shapes = append(sc.types, t), append(sc.vdims, vd), append(shapes, shape)
	}
	if sc.scalar = rng.Intn(2) == 0; sc.scalar {
		sc.types, sc.vdims, shapes = append(sc.types, types[rng.Intn(len(types))]), append(sc.vdims, nil), append(shapes, nil)
	}
	long := 5*harnessStaging + 1 + rng.Int63n(harnessStaging)
	// Double on half the seeds: 8-byte elements, which 4100-byte windows cut.
	sc.types = append(sc.types, []nctype.Type{types[rng.Intn(len(types))], nctype.Double}[rng.Intn(2)])
	sc.vdims = append(sc.vdims, []int{len(sc.dims)})
	sc.dims, shapes = append(sc.dims, long), append(shapes, []int64{long})

	nputs := 0
	tile := func(v int, start, count []int64, pass int) (ops []harnessOp) {
		for _, b := range splitBox(rng, start, count, 1+rng.Intn(5)) {
			op := harnessOp{v: v, start: b[0], count: b[1], vals: make([]float64, elems(b[1]))}
			// Float and Double values carry a fraction in steps of 1/denom,
			// which they hold exactly and which fills their low bytes (1 for
			// the other types: no fraction); []int32 memory holds the floor.
			denom := max(1, map[nctype.Type]int{nctype.Float: 1 << 6, nctype.Double: 1 << 34}[sc.types[v]])
			for i := range op.vals {
				op.vals[i] = float64((v*31+nputs*1000+i*7+pass*13)%100) + float64(i*2654435761%denom)/float64(denom)
			}
			nputs++
			ops = append(ops, op)
		}
		return ops
	}
	var first []harnessOp
	for v, shape := range shapes {
		first = append(first, tile(v, make([]int64, len(shape)), shape, 0)...)
		part := splitBox(rng, make([]int64, len(shape)), shape, 2+rng.Intn(3))
		for _, b := range part[:1+rng.Intn(len(part))] {
			sc.gets = append(sc.gets, harnessOp{v: v, start: b[0], count: b[1]})
		}
	}
	if seed%2 == 0 {
		// Beyond Byte and Short, inside the rest: whether this is NC_ERANGE
		// depends on the variable's type, which is the serial library's call.
		op := &first[rng.Intn(len(first))]
		for i := range op.vals {
			op.vals[i] += 100000
		}
	}
	if sc.growth = seed%3 == 0 && !sc.fill; sc.growth {
		shape := slices.Clone(shapes[lastRecVar])
		shape[0] = 1
		start := make([]int64, len(shape))
		start[0] = nrecs
		first = append(first, harnessOp{v: lastRecVar, start: start, count: shape, vals: make([]float64, elems(shape))})
		beyond := slices.Clone(start)
		beyond[0] = nrecs + 2
		sc.gets = append(sc.gets, harnessOp{v: lastRecVar, start: beyond, count: shape})
	}
	sc.passes = [][]harnessOp{first}
	if rng.Intn(2) == 0 { // overwrite a sub-box of some variables
		var again []harnessOp
		for v, shape := range shapes {
			if len(shape) == 0 || rng.Intn(2) == 0 {
				continue
			}
			b := splitBox(rng, make([]int64, len(shape)), shape, 2)
			again = append(again, tile(v, b[len(b)-1][0], b[len(b)-1][1], 1)...)
		}
		if len(again) > 0 {
			sc.passes = append(sc.passes, again)
		}
	}
	for _, ops := range append(sc.passes, sc.gets) {
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	}
	return sc
}

// harnessLib is what the scenario needs of either library to define itself.
type harnessLib interface {
	DefDim(name string, size int64) (int, error)
	DefVar(name string, t nctype.Type, dimids []int) (int, error)
	RenameVar(varid int, newName string) error
	SetFill(on bool)
	Redef() error
	EndDef() error
}

func (sc *scenario) define(d harnessLib) error {
	d.SetFill(sc.fill)
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

// redef adds a fixed variable, which lands before the record section, and
// renames the first variable.
func redef(d harnessLib) error {
	if err := d.Redef(); err != nil {
		return err
	}
	if _, err := d.DefVar("w", nctype.Float, []int{1}); err != nil {
		return err
	}
	if err := d.RenameVar(0, "v0_renamed"); err != nil {
		return err
	}
	return d.EndDef()
}

// The ways to spell the same accesses.
const (
	wayBlocking    = iota
	wayAllQueued   // every op of a pass queued, one WaitAll
	wayInterleaved // per round blocking or queued, WaitAll now and then
	wayOneEach     // each op queued and completed by its own WaitAll
	wayFlexible    // the flexible calls, per round blocking or queued
	numWays
)

// The memory layouts.
const (
	layoutContig = iota
	layoutMapped // column-major memory, named by an imap
	layoutGuard  // a guard cell around the box, named by a subarray memtype
	numLayouts
)

var (
	wayNames    = [numWays]string{"blocking", "all queued", "interleaved", "one per WaitAll", "flexible"}
	layoutNames = [numLayouts]string{"contiguous", "mapped", "guard cells"}
)

// execCfg is what one execution samples.
type execCfg struct {
	p, q, way, layout int
	float, redef      bool // float: memory []float64, else []int32
	hints             map[string]string
	sched             int64 // seeds the per-round choices of the interleaved and flexible ways
}

func (c execCfg) String() string {
	return fmt.Sprintf("P=%d Q=%d way=%s layout=%s float64=%v redef=%v hints=%v sched=%d",
		c.p, c.q, wayNames[c.way], layoutNames[c.layout], c.float, c.redef, c.hints, c.sched)
}

// sampleCfg draws an execution at p writing and q reading ranks.
func sampleCfg(rng *rand.Rand, p, q int) execCfg {
	c := execCfg{p: p, q: q, way: rng.Intn(numWays), layout: rng.Intn(numLayouts),
		float: rng.Intn(2) == 0, redef: rng.Intn(2) == 0, sched: rng.Int63(), hints: map[string]string{}}
	if rng.Intn(2) == 0 {
		c.hints["cb_nodes"] = fmt.Sprint(1 + rng.Intn(p))
	}
	if cb := []string{"", "8200", "4100"}[rng.Intn(3)]; cb != "" {
		c.hints["cb_buffer_size"] = cb
	}
	for _, kv := range [][2]string{
		{"romio_cb_write", "disable"}, {"romio_ds_write", "disable"}, {"nc_header_align_size", "512"},
		{"cb_partition", "balanced"}, {"cb_partition_buckets", "16"}, // retired: unknown keys now
	} {
		if rng.Intn(5) == 0 {
			c.hints[kv[0]] = kv[1]
		}
	}
	return c
}

// oracle is what the serial library makes of the program under an
// execution's header alignment, memory type and Redef.
type oracle struct {
	file     []byte
	putClass [][]string // by pass and op
	getClass []string
	getVals  [][]float64
}

// memValues is vals as the execution's memory type holds them.
func memValues(vals []float64, float bool) any {
	if float {
		return vals
	}
	out := make([]int32, len(vals))
	for i, v := range vals {
		out[i] = int32(math.Floor(v))
	}
	return out
}

// floats returns the values of memory of either type.
func floats(buf any) []float64 {
	if f, ok := buf.([]float64); ok {
		return f
	}
	out := make([]float64, len(buf.([]int32)))
	for i, v := range buf.([]int32) {
		out[i] = float64(v)
	}
	return out
}

// extents is variable v's shape, with more records than any op reaches.
func (sc *scenario) extents(v int) []int64 {
	out := make([]int64, len(sc.vdims[v]))
	for d, k := range sc.vdims[v] {
		if out[d] = 8; k >= 0 {
			out[d] = sc.dims[k]
		}
	}
	return out
}

// elements calls f with each element of the box (start, count) of variable
// v, in row-major order: its position in the box and in the variable.
func (sc *scenario) elements(v int, start, count []int64, f func(i int, flat int64)) {
	extents := sc.extents(v)
	idx := slices.Clone(start)
	for i := 0; i < int(elems(count)); i++ {
		flat := int64(0)
		for d, x := range extents {
			flat = flat*x + idx[d]
		}
		f(i, flat)
		for d := len(idx) - 1; d >= 0; d-- {
			if idx[d]++; idx[d] < start[d]+count[d] {
				break
			}
			idx[d] = start[d]
		}
	}
}

// serial runs the program through the serial library and holds its reads to
// the puts: the later of two puts wins, and an element a put out of range
// wrote is left out.
func (sc *scenario) serial(cfg execCfg) (*oracle, error) {
	align := int64(1)
	if cfg.hints["nc_header_align_size"] != "" {
		align = 512
	}
	store := &netcdf.MemStore{}
	d, err := netcdf.Create(store, nctype.Clobber, netcdf.WithHeaderAlign(align))
	if err != nil {
		return nil, err
	}
	if err := sc.define(d); err != nil {
		return nil, err
	}
	o := &oracle{}
	unknown := math.NaN()
	model := make([][]float64, len(sc.types))
	for v := range model {
		model[v] = make([]float64, elems(sc.extents(v)))
		for i := range model[v] {
			model[v][i] = unknown
		}
	}
	for _, ops := range sc.passes {
		classes := make([]string, len(ops))
		for i, op := range ops {
			held := memValues(op.vals, cfg.float)
			classes[i] = errClass(d.PutVara(op.v, op.start, op.count, held))
			vals := floats(held)
			sc.elements(op.v, op.start, op.count, func(j int, flat int64) {
				if model[op.v][flat] = vals[j]; classes[i] == "range" {
					model[op.v][flat] = unknown
				}
			})
		}
		o.putClass = append(o.putClass, classes)
	}
	if cfg.redef {
		err = redef(d)
	}
	if err = errors.Join(err, d.Close()); err != nil {
		return nil, err
	}
	o.file = bytes.Clone(store.Data)
	r, err := netcdf.Open(store, nctype.NoWrite)
	if err != nil {
		return nil, err
	}
	for i, op := range sc.gets {
		buf := memValues(make([]float64, elems(op.count)), cfg.float)
		class := errClass(r.GetVara(op.v, op.start, op.count, buf))
		vals := floats(buf)
		o.getClass, o.getVals = append(o.getClass, class), append(o.getVals, vals)
		var bad error
		sc.elements(op.v, op.start, op.count, func(j int, flat int64) {
			if want := model[op.v][flat]; !math.IsNaN(want) && class == "" && vals[j] != want && bad == nil {
				bad = fmt.Errorf("get %d (v%d %v+%v) element %d = %v, the puts left %v", i, op.v, op.start, op.count, j, vals[j], want)
			}
		})
		if bad != nil {
			return nil, bad
		}
	}
	return o, nil
}

// guardPoison fills what no call may touch: guard cells, gaps, and a get's
// memory before the get.
const guardPoison = -7777

// userMem is one op's memory as the program holds it: the buffer, the runs
// of it that hold the box's values in row-major order, and how a call names
// them — an imap (mapped) or a memtype (guard cells, or the contiguous run).
type userMem struct {
	buf  any // []int32 or []float64
	runs []mpitype.Segment
	imap []int64
	typ  mpitype.Datatype
}

// newUserMem lays out vals (nil: a get's memory, all poison) of shape
// count. A scalar is held contiguously whatever the layout.
func newUserMem(layout int, float bool, count []int64, vals []float64) (userMem, error) {
	if len(count) == 0 {
		layout = layoutContig
	}
	n, size := elems(count), elems(count)
	var m userMem
	var err error
	switch layout {
	case layoutContig:
		m.runs = []mpitype.Segment{{Len: n}}
		m.typ, err = mpitype.FromSegments(m.runs, n)
	case layoutMapped:
		m.imap = make([]int64, len(count))
		for i, stride := 0, int64(1); i < len(count); i++ {
			m.imap[i], stride = stride, stride*count[i]
		}
		m.runs, err = access.MemSegments(count, m.imap)
	case layoutGuard:
		sizes, starts := make([]int64, len(count)), make([]int64, len(count))
		for i, c := range count {
			sizes[i], starts[i] = c+2, 1
		}
		size = elems(sizes)
		m.typ, err = mpitype.Subarray(sizes, count, starts, 1)
		m.runs = m.typ.Runs()
	}
	m.buf = memValues(scatter(vals, m.runs, size), float)
	return m, err
}

// scatter lays lin (nil: nothing) out along runs in a buffer of size
// elements; the rest holds the poison.
func scatter(lin []float64, runs []mpitype.Segment, size int64) []float64 {
	buf := make([]float64, size)
	for i := range buf {
		buf[i] = guardPoison
	}
	for _, r := range runs {
		lin = lin[copy(buf[r.Off:r.Off+r.Len], lin):]
	}
	return buf
}

// values returns the box's values, or an error if anything outside the runs
// changed.
func (m userMem) values() ([]float64, error) {
	buf := floats(m.buf)
	var out []float64
	inBox := make([]bool, len(buf))
	for _, r := range m.runs {
		out = append(out, buf[r.Off:r.Off+r.Len]...)
		for i := r.Off; i < r.Off+r.Len; i++ {
			inBox[i] = true
		}
	}
	for i, in := range inBox {
		if !in && buf[i] != guardPoison {
			return nil, fmt.Errorf("memory element %d outside the box holds %v", i, buf[i])
		}
	}
	return out, nil
}

// collCall is one collective call as one rank saw it: the two-phase rounds
// it took and the variables of this rank's ops in it.
type collCall struct {
	rounds int64
	vars   []int
}

// rankResult is what one rank observed in one session.
type rankResult struct {
	class       string // first error class returned, in return order
	reads       map[int][]float64
	counters    [4]int64 // nc_coll_puts, nc_coll_gets, nc_bytes_put, nc_bytes_got
	collectives []collCall
}

// session runs one library session's ops on one rank.
type session struct {
	d       *core.Dataset
	st      *iostat.Stats
	cfg     execCfg
	sched   *rand.Rand // drawn identically on every rank: collective calls must match
	res     *rankResult
	empty   harnessOp // a rank with no op in a round accesses none of variable 0, a record variable
	pending bool      // ops are queued
	vars    []int     // the variables of this rank's queued ops
}

func (s *session) note(err error) {
	if s.res.class == "" {
		s.res.class = errClass(err)
	}
}

func (s *session) collective(call func() error, vars []int) {
	before := s.st.Get(iostat.IOTwoPhaseRounds)
	s.note(call())
	s.res.collectives = append(s.res.collectives, collCall{s.st.Get(iostat.IOTwoPhaseRounds) - before, vars})
}

func (s *session) waitAll() {
	s.collective(s.d.WaitAll, s.vars)
	s.pending, s.vars = false, nil
}

// phase runs ops in rounds of one per rank: op i belongs to rank i % size,
// and a rank with none left joins the round with an empty access, as the
// collective calls require. It returns the memory of each of this rank's
// ops as the call named it: mapped memory goes to the queued and flexible
// calls, which take no imap, gathered into a contiguous buffer.
func (s *session) phase(ops []harnessOp, write bool) (map[int]userMem, error) {
	size, rank := s.d.Comm().Size(), s.d.Comm().Rank()
	mems := map[int]userMem{}
	for base := 0; base < len(ops); base += size {
		op := s.empty
		var m userMem // no buffer, the empty memtype
		i := base + rank
		if i < len(ops) {
			op = ops[i]
			var err error
			if m, err = newUserMem(s.cfg.layout, s.cfg.float, op.count, op.vals); err != nil {
				return nil, err
			}
		}
		way := s.cfg.way
		queue := way == wayAllQueued || way == wayOneEach || (way == wayInterleaved || way == wayFlexible) && s.sched.Intn(2) == 0
		flex := way == wayFlexible || s.cfg.layout == layoutGuard
		if m.imap != nil && (queue || flex) {
			// The queued and flexible calls take no imap: the program gathers
			// the values into contiguous memory, which cannot fail.
			vals, _ := m.values()
			m, _ = newUserMem(layoutContig, s.cfg.float, op.count, vals)
		}
		var vars []int
		if i < len(ops) {
			mems[i], vars = m, []int{op.v}
		}
		d := s.d
		switch {
		case queue:
			var err error
			switch {
			case flex && write:
				_, err = d.IPutVaraType(op.v, op.start, op.count, m.buf, m.typ)
			case flex:
				_, err = d.IGetVaraType(op.v, op.start, op.count, m.buf, m.typ)
			case write:
				_, err = d.IPutVara(op.v, op.start, op.count, m.buf)
			default:
				_, err = d.IGetVara(op.v, op.start, op.count, m.buf)
			}
			s.note(err)
			s.pending, s.vars = true, append(s.vars, vars...)
			if way == wayOneEach || way == wayInterleaved && s.sched.Intn(3) == 0 {
				s.waitAll()
			}
		case flex && write:
			s.collective(func() error { return d.PutVaraTypeAll(op.v, op.start, op.count, m.buf, m.typ) }, vars)
		case flex:
			s.collective(func() error { return d.GetVaraTypeAll(op.v, op.start, op.count, m.buf, m.typ) }, vars)
		case m.imap != nil && write:
			s.collective(func() error { return d.PutVarmAll(op.v, op.start, op.count, nil, m.imap, m.buf) }, vars)
		case m.imap != nil:
			s.collective(func() error { return d.GetVarmAll(op.v, op.start, op.count, nil, m.imap, m.buf) }, vars)
		case write:
			s.collective(func() error { return d.PutVaraAll(op.v, op.start, op.count, m.buf) }, vars)
		default:
			s.collective(func() error { return d.GetVaraAll(op.v, op.start, op.count, m.buf) }, vars)
		}
	}
	if s.pending {
		s.waitAll()
	}
	return mems, nil
}

// execute runs the program under cfg and holds it to the oracle. It returns
// what each writing and each reading rank observed.
func (sc *scenario) execute(t *testing.T, cfg execCfg, o *oracle) (writes, reads []rankResult, err error) {
	info := mpi.NewInfo().Set("nc_var_align_size", "1") // the serial library's packed layout
	for k, v := range cfg.hints {
		info.Set(k, v)
	}
	fscfg := pfs.BlueHorizon()
	fscfg.StripeSize = harnessStaging
	fsys := pfs.New(fscfg)
	writes, reads = make([]rankResult, cfg.p), make([]rankResult, cfg.q)
	run := func(n int, results []rankResult, create bool, body func(s *session) error) error {
		return mpi.Run(n, mpi.DefaultNet(), func(c *mpi.Comm) error {
			st := iostat.New()
			c.Proc().SetStats(st)
			open := func() (*core.Dataset, error) { return core.Open(c, fsys, "h.nc", nctype.NoWrite, info) }
			if create {
				open = func() (*core.Dataset, error) { return core.Create(c, fsys, "h.nc", nctype.Clobber, info) }
			}
			d, err := open()
			if err == nil && create {
				err = sc.define(d)
			}
			if err != nil {
				return err
			}
			r := &results[c.Rank()]
			s := &session{d: d, st: st, cfg: cfg, sched: rand.New(rand.NewSource(cfg.sched)), res: r,
				empty: harnessOp{start: make([]int64, len(sc.vdims[0])), count: make([]int64, len(sc.vdims[0]))}}
			if err := body(s); err != nil {
				return fmt.Errorf("rank %d: %w", c.Rank(), err)
			}
			for i, k := range []iostat.Counter{iostat.NCCollPuts, iostat.NCCollGets, iostat.NCBytesPut, iostat.NCBytesGot} {
				r.counters[i] = st.Get(k)
			}
			return d.Close()
		})
	}
	err = run(cfg.p, writes, true, func(s *session) error {
		for pass, ops := range sc.passes {
			mems, err := s.phase(ops, true)
			if err != nil {
				return err
			}
			// The calls read the values only: every put's memory is as it was.
			for i, m := range mems {
				if vals, err := m.values(); err != nil || !slices.Equal(vals, floats(memValues(ops[i].vals, cfg.float))) {
					return fmt.Errorf("pass %d put %d: memory changed (%v)", pass, i, err)
				}
			}
		}
		if cfg.redef {
			s.note(redef(s.d))
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("write at %d ranks: %w", cfg.p, err)
	}
	// The parallel commit journals the header past the data and erases it,
	// so its file may end in zeros the serial one lacks.
	img := readPFSFile(t, fsys, "h.nc")
	if n := min(len(img), len(o.file)); !bytes.Equal(img[:n], o.file[:n]) ||
		len(bytes.Trim(img[n:], "\x00"))+len(bytes.Trim(o.file[n:], "\x00")) != 0 {
		at := 0
		for at < n && img[at] == o.file[at] {
			at++
		}
		return nil, nil, fmt.Errorf("the file (%d B) differs from the serial library's (%d B) first at byte %d", len(img), len(o.file), at)
	}
	err = run(cfg.q, reads, false, func(s *session) error {
		mems, err := s.phase(sc.gets, false)
		s.res.reads = map[int][]float64{}
		for i, m := range mems {
			if s.res.reads[i], err = m.values(); err != nil {
				return fmt.Errorf("get %d: %w", i, err)
			}
		}
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("read at %d ranks: %w", cfg.q, err)
	}
	for rank, r := range writes {
		if want := firstClass(rank, cfg.p, o.putClass...); r.class != want {
			return nil, nil, fmt.Errorf("writing rank %d returned error class %q, the serial library %q", rank, r.class, want)
		}
	}
	for rank, r := range reads {
		if want := firstClass(rank, cfg.q, o.getClass); r.class != want {
			return nil, nil, fmt.Errorf("reading rank %d returned error class %q, the serial library %q", rank, r.class, want)
		}
		for i, got := range r.reads {
			if o.getClass[i] == "" && !slices.Equal(got, o.getVals[i]) {
				op := sc.gets[i]
				return nil, nil, fmt.Errorf("rank %d get %d (v%d %v+%v) = %v, want %v", rank, i, op.v, op.start, op.count, got, o.getVals[i])
			}
		}
	}
	return writes, reads, nil
}

// firstClass is the first error class the serial library gave an op of
// rank's, of n ranks: op i of each list is rank i % n's.
func firstClass(rank, n int, lists ...[]string) string {
	for _, classes := range lists {
		for i := rank; i < len(classes); i += n {
			if classes[i] != "" {
				return classes[i]
			}
		}
	}
	return ""
}

// features names what an execution exercised, for harnessCoverage.
func (sc *scenario) features(cfg execCfg, o *oracle, writes, reads []rankResult) []string {
	f := []string{"way " + wayNames[cfg.way], "layout " + layoutNames[cfg.layout], fmt.Sprintf("mem float64=%v", cfg.float)}
	for k, v := range cfg.hints {
		if k == "cb_nodes" && v == fmt.Sprint(cfg.p) {
			v = "P"
		}
		f = append(f, "hint "+k+"="+v)
	}
	on := func(cond bool, name string) {
		if cond {
			f = append(f, name)
		}
	}
	on(cfg.hints["cb_nodes"] != "", "hint cb_nodes")
	on(cfg.q != cfg.p, "reopen at Q != P")
	on(sc.fill && cfg.redef, "fill with Redef")
	on(len(sc.passes) > 1, "overwrite pass")
	on(sc.growth, "record growth from one rank")
	on(firstClass(0, 1, o.putClass...) == "range", "ErrRange")
	on(sc.scalar, "scalar variable")
	// A collective's rounds are the most any rank took part in, and its
	// variables those of every rank's ops. Its round windows cut an element
	// when it took two or more rounds of 4100 bytes over one fixed variable
	// of 8-byte elements: some aggregator's domain then starts on an element
	// boundary and its second window 4100 bytes later, inside an element, or
	// starts on a stripe boundary inside one.
	for _, ranks := range [][]rankResult{writes, reads} {
		for k := range ranks[0].collectives {
			var rounds int64
			var vars []int
			for _, r := range ranks {
				rounds = max(rounds, r.collectives[k].rounds)
				vars = append(vars, r.collectives[k].vars...)
			}
			slices.Sort(vars)
			vars = slices.Compact(vars)
			on(rounds > 0, "collective of "+[...]string{"", "1 round", "2 rounds", "many rounds"}[min(rounds, 3)])
			on(rounds >= 2 && cfg.hints["cb_buffer_size"] == "4100" && len(vars) == 1 &&
				sc.types[vars[0]].Size() == 8 && !slices.Contains(sc.vdims[vars[0]], -1), "window cutting an element")
		}
	}
	return f
}

// harnessCoverage is what the tier-1 seeds must exercise between them.
var harnessCoverage = func() []string {
	var f []string
	for _, w := range wayNames {
		f = append(f, "way "+w)
	}
	for _, l := range layoutNames {
		f = append(f, "layout "+l)
	}
	return append(f, "mem float64=false", "mem float64=true", "reopen at Q != P",
		"collective of 1 round", "collective of 2 rounds", "collective of many rounds", "window cutting an element",
		"hint cb_nodes", "hint cb_nodes=1", "hint cb_nodes=P", "hint cb_buffer_size=8200", "hint cb_buffer_size=4100",
		"hint romio_cb_write=disable", "hint romio_ds_write=disable", "hint nc_header_align_size=512",
		"hint cb_partition=balanced", "hint cb_partition_buckets=16",
		"fill with Redef", "overwrite pass", "record growth from one rank", "ErrRange", "scalar variable")
}()

// harnessSeeds and harnessPairs size tier-1: each seed runs its program in
// pairs of executions that share P and Q, whose counters must be equal.
const harnessSeeds, harnessPairs = 12, 4

func FuzzBlockingEquivalentToQueued(f *testing.F) {
	for seed := int64(1); seed <= harnessSeeds; seed++ {
		f.Add(seed)
	}
	seen, passed := map[string]bool{}, map[int64]bool{}
	f.Fuzz(func(t *testing.T, seed int64) {
		sc := newScenario(seed)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		var features []string
		for pair := 0; pair < harnessPairs; pair++ {
			p, q := 1+rng.Intn(4), 0
			if q = p; rng.Intn(2) == 0 {
				q = 1 + rng.Intn(4)
			}
			var ref [2][]rankResult
			var refCfg execCfg
			for k := 0; k < 2; k++ {
				cfg := sampleCfg(rng, p, q)
				o, err := sc.serial(cfg)
				if err != nil {
					t.Fatalf("seed %d, %v: serial library: %v", seed, cfg, err)
				}
				writes, reads, err := sc.execute(t, cfg, o)
				if err != nil {
					t.Fatalf("seed %d, %v: %v", seed, cfg, err)
				}
				for side, ranks := range [2][]rankResult{writes, reads} {
					for rank := 0; k > 0 && rank < len(ranks); rank++ {
						if a, b := ref[side][rank].counters, ranks[rank].counters; a != b {
							t.Fatalf("seed %d, %v: rank %d counters %v; %v counted %v", seed, cfg, rank, b, refCfg, a)
						}
					}
				}
				ref, refCfg = [2][]rankResult{writes, reads}, cfg
				features = append(features, sc.features(cfg, o, writes, reads)...)
			}
		}
		for _, name := range features {
			seen[name] = true
		}
		passed[seed] = true
	})
	// The coverage assertion holds over the tier-1 seeds, all of them, so it
	// is skipped while fuzzing and when -run picks some.
	for seed := int64(1); seed <= harnessSeeds; seed++ {
		if fz := flag.Lookup("test.fuzz"); !passed[seed] || fz != nil && fz.Value.String() != "" {
			return
		}
	}
	if missing := slices.DeleteFunc(slices.Clone(harnessCoverage), func(name string) bool { return seen[name] }); len(missing) > 0 {
		f.Errorf("the tier-1 seeds exercise none of %q", missing)
	}
}
