// Package metashape generates the dataset of the metadata benchmark
// (meta_defs) for the tests that pin what its header costs: one dimension of
// 16, eight global text attributes of 32 characters, and float variables on
// that dimension whose names are 8–24 characters long — a fixed multiset
// dealt out in seeded order, so that the header's size does not depend on the
// seed — each with an 8-character "units" text and a double "scale_factor".
// It imports no library package, so the codec's own tests can use it.
package metashape

import (
	"fmt"
	"math/rand"

	"pnetcdf/internal/nctype"
)

// globalID is the variable ID of the global attributes (cdf.GlobalID).
const globalID = -1

// Shape holds the definitions: the global attributes' texts, and per
// variable its name, its "units" text and its "scale_factor".
type Shape struct {
	GTexts, Names, Units []string
	Scales               []float64
}

// New deals out nvars variables from the seed.
func New(nvars int, seed int64) Shape {
	rng := rand.New(rand.NewSource(seed))
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789_"
	text := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		b[0] = alphabet[rng.Intn(26)]
		return string(b)
	}
	var s Shape
	for i := 0; i < 8; i++ {
		s.GTexts = append(s.GTexts, text(32))
	}
	seen := map[string]bool{}
	for _, j := range rng.Perm(nvars) {
		name := text(8 + j%17)
		for seen[name] {
			name = text(len(name))
		}
		seen[name] = true
		s.Names = append(s.Names, name)
		s.Units = append(s.Units, text(8))
		s.Scales = append(s.Scales, rng.Float64())
	}
	return s
}

// Definer is the define surface of a dataset in either library.
type Definer interface {
	DefDim(name string, size int64) (int, error)
	DefVar(name string, t nctype.Type, dimids []int) (int, error)
	PutAttr(varid int, name string, t nctype.Type, value any) error
}

// Define makes the shape's definitions on d, in order: the global
// attributes, the dimension, then each variable and its two attributes.
func (s Shape) Define(d Definer) error {
	for i, text := range s.GTexts {
		if err := d.PutAttr(globalID, fmt.Sprintf("history_%d", i), nctype.Char, text); err != nil {
			return err
		}
	}
	n, err := d.DefDim("n", 16)
	if err != nil {
		return err
	}
	for i, name := range s.Names {
		v, err := d.DefVar(name, nctype.Float, []int{n})
		if err != nil {
			return err
		}
		if err := d.PutAttr(v, "units", nctype.Char, s.Units[i]); err != nil {
			return err
		}
		if err := d.PutAttr(v, "scale_factor", nctype.Double, s.Scales[i:i+1]); err != nil {
			return err
		}
	}
	return nil
}
