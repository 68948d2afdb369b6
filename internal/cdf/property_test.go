package cdf

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pnetcdf/internal/nctype"
)

// The reference model of TestDefineSequencesAgainstModel: plain Go values,
// looked up by map and by scan, that the header must agree with.
type refAttr struct {
	name   string
	typ    nctype.Type
	nelems int
	ext    []byte // the values' external form, unpadded
}

type refVar struct {
	name  string
	attrs []refAttr
}

type refModel struct {
	dims, vars map[string]int
	dimNames   []string
	varList    []refVar
	gattrs     []refAttr
	hasUnlim   bool
	define     bool
	gone       []string // names given up by renames, to look up as misses
}

func (m *refModel) list(varid int) *[]refAttr {
	if varid == GlobalID {
		return &m.gattrs
	}
	return &m.varList[varid].attrs
}

func findRef(as []refAttr, name string) int {
	for i := range as {
		if as[i].name == name {
			return i
		}
	}
	return -1
}

// randomValue draws n values of a type the version has, as the Go kind
// PutAttr takes, and returns them with n; bad asks for a value out of the
// type's range.
func randomValue(rng *rand.Rand, version int, bad bool) (nctype.Type, any, int) {
	types := []nctype.Type{nctype.Char, nctype.Byte, nctype.Short, nctype.Int, nctype.Float, nctype.Double}
	if version == 5 {
		types = append(types, nctype.UByte, nctype.UShort, nctype.UInt, nctype.Int64, nctype.UInt64)
	}
	t := types[rng.Intn(len(types))]
	n := rng.Intn(7) // zero-element values too
	if bad {
		return nctype.Short, []int32{1 << 20}, 1
	}
	var v any
	switch t {
	case nctype.Char:
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		v = string(b)
	case nctype.Byte:
		s := make([]int8, n)
		for i := range s {
			s[i] = int8(rng.Intn(256) - 128)
		}
		v = s
	case nctype.Short:
		s := make([]int16, n)
		for i := range s {
			s[i] = int16(rng.Intn(1 << 16))
		}
		v = s
	case nctype.Int:
		s := make([]int32, n)
		for i := range s {
			s[i] = rng.Int31() - 1<<30
		}
		v = s
	case nctype.Float:
		s := make([]float32, n)
		for i := range s {
			s[i] = rng.Float32()*1e6 - 5e5
		}
		v = s
	case nctype.Double:
		s := make([]float64, n)
		for i := range s {
			s[i] = rng.NormFloat64() * 1e10
		}
		v = s
	case nctype.UByte:
		s := make([]uint8, n)
		for i := range s {
			s[i] = uint8(rng.Intn(256))
		}
		v = s
	case nctype.UShort:
		s := make([]uint16, n)
		for i := range s {
			s[i] = uint16(rng.Intn(1 << 16))
		}
		v = s
	case nctype.UInt:
		s := make([]uint32, n)
		for i := range s {
			s[i] = rng.Uint32()
		}
		v = s
	case nctype.Int64:
		s := make([]int64, n)
		for i := range s {
			s[i] = rng.Int63() - 1<<62
		}
		v = s
	case nctype.UInt64:
		s := make([]uint64, n)
		for i := range s {
			s[i] = rng.Uint64()
		}
		v = s
	}
	return t, v, n
}

// randomName is a valid name of 1 to 24 bytes from a small alphabet, so
// that names collide now and then.
func randomName(rng *rand.Rand, prefix string) string {
	var b strings.Builder
	b.WriteString(prefix)
	for i := rng.Intn(3); i >= 0; i-- {
		b.WriteByte("abc_"[rng.Intn(4)])
	}
	if rng.Intn(4) == 0 {
		b.WriteString(strings.Repeat("x", rng.Intn(16)))
	}
	return b.String()
}

// TestDefineSequencesAgainstModel runs seeded random sequences of every
// define-mode and data-mode change — DefDim, DefVar, the three renames,
// PutAttr (new, replacing, out of range, data-mode overwrites that do and do
// not grow the padded value), DelAttr, EndDef and Redef — on headers that
// grow past indexMinLen and through the name index's doublings (to 512
// and 1024 slots). After every step, FindDim, FindVar and every attribute
// list agree with a reference model, and an Encode→Decode round trip gives
// the same bytes and the same answers. A failure names the seed and step.
func TestDefineSequencesAgainstModel(t *testing.T) {
	steps := 1500
	if testing.Short() {
		steps = 200
	}
	for _, seed := range []int64{1, 2, 3, 4} {
		version := []int{1, 2, 5, 2}[seed-1]
		runModelSequence(t, seed, version, steps)
	}
}

func runModelSequence(t *testing.T, seed int64, version int, steps int) {
	rng := rand.New(rand.NewSource(seed))
	cmode := map[int]int{1: 0, 2: nctype.Bit64Offset, 5: nctype.Bit64Data}[version]
	f := CreateFront(cmode, func() error { return nil })
	m := &refModel{dims: map[string]int{}, vars: map[string]int{}, define: true}
	for step := 0; step < steps; step++ {
		what, err, wantErr := applyRandomStep(rng, &f, m, version)
		if (err != nil) != wantErr {
			t.Fatalf("seed %d, step %d, %s: err = %v, the model expected an error: %v", seed, step, what, err, wantErr)
		}
		if err := checkAgainstModel(f.Hdr, m, true); err != nil {
			t.Fatalf("seed %d, step %d, after %s: %v", seed, step, what, err)
		}
		img := f.Hdr.Encode()
		dec, err := Decode(img)
		if err != nil {
			t.Fatalf("seed %d, step %d, after %s: Decode of the encoding: %v", seed, step, what, err)
		}
		// Equal encodings hold the same attribute lists.
		if err := checkAgainstModel(dec, m, false); err != nil || !bytes.Equal(dec.Encode(), img) {
			t.Fatalf("seed %d, step %d, after %s: the decoded header differs: %v", seed, step, what, err)
		}
	}
	if steps >= 1500 && (len(m.varList) <= 4*indexMinLen || len(m.dimNames) <= 2*indexMinLen) {
		t.Fatalf("seed %d: %d variables and %d dimensions never reached the index's later doublings", seed, len(m.varList), len(m.dimNames))
	}
}

// applyRandomStep makes one random change through f and to m, reporting
// what it did, the error f returned, and whether m expected one.
func applyRandomStep(rng *rand.Rand, f *Front, m *refModel, version int) (what string, err error, wantErr bool) {
	pickVar := func() int {
		if len(m.varList) == 0 || rng.Intn(8) == 0 {
			return GlobalID
		}
		return rng.Intn(len(m.varList))
	}
	switch op := rng.Intn(100); {
	case op < 16: // DefDim
		name := randomName(rng, "d")
		if rng.Intn(3) > 0 {
			name = fmt.Sprintf("dim%d", len(m.dimNames))
		}
		size := int64(1 + rng.Intn(5))
		if rng.Intn(20) == 0 {
			size = 0
		}
		_, taken := m.dims[name]
		wantErr = !m.define || taken || size == 0 && m.hasUnlim
		_, err = f.DefDim(name, size)
		if !wantErr {
			m.dims[name] = len(m.dimNames)
			m.dimNames = append(m.dimNames, name)
			m.hasUnlim = m.hasUnlim || size == 0
		}
		return fmt.Sprintf("DefDim(%q, %d)", name, size), err, wantErr
	case op < 47: // DefVar over fixed dimensions
		name := randomName(rng, "v")
		if rng.Intn(4) > 0 {
			name = fmt.Sprintf("var%d", len(m.varList))
		}
		var dimids []int
		for i := 0; i < rng.Intn(3) && len(m.dimNames) > 0; i++ {
			if id := rng.Intn(len(m.dimNames)); f.Hdr.Dims[id].Len > 0 {
				dimids = append(dimids, id)
			}
		}
		_, taken := m.vars[name]
		wantErr = !m.define || taken
		_, err = f.DefVar(name, nctype.Float, dimids)
		if !wantErr {
			m.vars[name] = len(m.varList)
			m.varList = append(m.varList, refVar{name: name})
		}
		return fmt.Sprintf("DefVar(%q, %v)", name, dimids), err, wantErr
	case op < 52: // RenameDim
		if len(m.dimNames) == 0 {
			return "nothing", nil, false
		}
		id, name := rng.Intn(len(m.dimNames)), randomName(rng, "d")
		old := m.dimNames[id]
		at, taken := m.dims[name]
		wantErr = taken && at != id || !m.define && len(name) > len(old)
		err = f.RenameDim(id, name)
		if !wantErr {
			delete(m.dims, old)
			m.dims[name], m.dimNames[id] = id, name
			m.gone = append(m.gone, old)
		}
		return fmt.Sprintf("RenameDim(%d, %q)", id, name), err, wantErr
	case op < 58: // RenameVar
		if len(m.varList) == 0 {
			return "nothing", nil, false
		}
		id, name := rng.Intn(len(m.varList)), randomName(rng, "v")
		old := m.varList[id].name
		at, taken := m.vars[name]
		wantErr = taken && at != id || !m.define && len(name) > len(old)
		err = f.RenameVar(id, name)
		if !wantErr {
			delete(m.vars, old)
			m.vars[name], m.varList[id].name = id, name
			m.gone = append(m.gone, old)
		}
		return fmt.Sprintf("RenameVar(%d, %q)", id, name), err, wantErr
	case op < 82: // PutAttr: new, replacing, out of range, data-mode overwrite
		varid := pickVar()
		as := m.list(varid)
		name := []string{"units", "scale_factor", "_FillValue", "long_name", "a", "valid_range"}[rng.Intn(6)]
		if rng.Intn(3) == 0 {
			name = randomName(rng, "att")
		}
		bad := rng.Intn(25) == 0
		typ, value, n := randomValue(rng, version, bad)
		size := n * typ.Size()
		i := findRef(*as, name)
		wantErr = bad || !m.define && (i < 0 || round4(int64(size)) > round4(int64(len((*as)[i].ext))))
		err = f.PutAttr(varid, name, typ, value)
		if bad && !errors.Is(err, ErrRange) && (m.define || i >= 0 && round4(int64(size)) <= round4(int64(len((*as)[i].ext)))) {
			return fmt.Sprintf("PutAttr(%d, %q) out of range", varid, name), fmt.Errorf("want ErrRange, got %v", err), false
		}
		if !wantErr {
			ext, _ := EncodeSlice(nil, typ, value)
			a := refAttr{name: name, typ: typ, nelems: n, ext: ext}
			if i >= 0 {
				(*as)[i] = a
			} else {
				*as = append(*as, a)
			}
		}
		return fmt.Sprintf("PutAttr(%d, %q, %v, %d B, define %v)", varid, name, typ, size, m.define), err, wantErr
	case op < 88: // DelAttr
		varid := pickVar()
		as := m.list(varid)
		if len(*as) == 0 {
			return "nothing", nil, false
		}
		name := (*as)[rng.Intn(len(*as))].name
		if rng.Intn(5) == 0 {
			name = "absent"
		}
		i := findRef(*as, name)
		wantErr = !m.define || i < 0
		err = f.DelAttr(varid, name)
		if !wantErr {
			*as = append((*as)[:i], (*as)[i+1:]...)
		}
		return fmt.Sprintf("DelAttr(%d, %q)", varid, name), err, wantErr
	case op < 96: // RenameAttr
		varid := pickVar()
		as := m.list(varid)
		if len(*as) == 0 {
			return "nothing", nil, false
		}
		i := rng.Intn(len(*as))
		old, name := (*as)[i].name, randomName(rng, "att")
		if rng.Intn(4) == 0 {
			name = (*as)[rng.Intn(len(*as))].name
		}
		at := findRef(*as, name)
		wantErr = at >= 0 && at != i || !m.define && len(name) > len(old)
		err = f.RenameAttr(varid, old, name)
		if !wantErr {
			(*as)[i].name = name
		}
		return fmt.Sprintf("RenameAttr(%d, %q, %q)", varid, old, name), err, wantErr
	default: // EndDef or Redef; define mode lasts twice as long
		if m.define && rng.Intn(2) == 0 {
			return "nothing", nil, false
		}
		if m.define {
			_, err = f.EndDef(1, 1, 0, nil)
			m.define = false
			return "EndDef", err, false
		}
		err = f.Redef(nil)
		m.define = true
		return "Redef", err, false
	}
}

// checkAgainstModel holds h's lookups, and with attrs its attribute lists,
// to m's.
func checkAgainstModel(h *Header, m *refModel, attrs bool) error {
	if len(h.Dims) != len(m.dimNames) || len(h.Vars) != len(m.varList) {
		return fmt.Errorf("%d dimensions and %d variables, the model has %d and %d", len(h.Dims), len(h.Vars), len(m.dimNames), len(m.varList))
	}
	for name, id := range m.dims {
		if got := h.FindDim(name); got != id {
			return fmt.Errorf("FindDim(%q) = %d, want %d", name, got, id)
		}
	}
	for name, id := range m.vars {
		if got := h.FindVar(name); got != id {
			return fmt.Errorf("FindVar(%q) = %d, want %d", name, got, id)
		}
	}
	for _, name := range append(m.gone, "absent") {
		if _, ok := m.dims[name]; !ok && h.FindDim(name) != -1 {
			return fmt.Errorf("FindDim(%q) = %d, want a miss", name, h.FindDim(name))
		}
		if _, ok := m.vars[name]; !ok && h.FindVar(name) != -1 {
			return fmt.Errorf("FindVar(%q) = %d, want a miss", name, h.FindVar(name))
		}
	}
	if !attrs {
		return nil
	}
	if err := sameAttrs(h.GAttrs, m.gattrs); err != nil {
		return fmt.Errorf("global attributes: %w", err)
	}
	for i := range m.varList {
		if err := sameAttrs(h.Vars[i].Attrs, m.varList[i].attrs); err != nil {
			return fmt.Errorf("variable %d: %w", i, err)
		}
	}
	return nil
}

// sameAttrs holds l to want, parsing it in place.
func sameAttrs(l AttrList, want []refAttr) error {
	off, nn := 0, l.width()
	for i, w := range want {
		if off == len(l.xdr) {
			return fmt.Errorf("%d attributes, want %d", i, len(want))
		}
		a := l.parse(off, nn)
		if string(a.name) != w.name || a.typ != w.typ || a.nelems != int64(w.nelems) || string(a.values) != string(w.ext) {
			return fmt.Errorf("attribute %d is %q %v of %d elements %x, want %q %v of %d %x",
				i, a.name, a.typ, a.nelems, a.values, w.name, w.typ, w.nelems, w.ext)
		}
		if _, at, _, _ := l.lookup(w.name); at != off {
			return fmt.Errorf("attribute %q is found at byte %d, not %d", w.name, at, off)
		}
		off = a.next
	}
	if off != len(l.xdr) {
		return fmt.Errorf("more than the %d attributes wanted", len(want))
	}
	return nil
}
