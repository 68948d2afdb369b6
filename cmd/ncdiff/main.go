// Command ncdiff compares two netCDF classic files structurally and (by
// default) element by element, like the nccmp utility.
//
// Usage:
//
//	ncdiff [-h] [-t tolerance] a.nc b.nc
//
// -h compares headers only; -t sets an absolute tolerance for floating
// point comparisons (default 0: exact).
//
// Exit status 0 when the files match, 1 when they differ.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"pnetcdf/internal/cdf"
	"pnetcdf/internal/cmdutil"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
)

var (
	headerOnly = flag.Bool("h", false, "compare headers only")
	tol        = flag.Float64("t", 0, "absolute tolerance for float comparisons")
)

func main() {
	flag.Parse()
	if flag.NArg() != 2 {
		cmdutil.Usagef("usage: ncdiff [-h] [-t tol] a.nc b.nc")
	}
	diffs, err := run(flag.Arg(0), flag.Arg(1))
	if err != nil {
		// Like diff/cmp: 1 means the files differ, 2 means trouble.
		fmt.Fprintln(os.Stderr, "ncdiff:", err)
		os.Exit(2)
	}
	if diffs == 0 {
		fmt.Println("files are identical")
		return
	}
	fmt.Printf("%d difference(s)\n", diffs)
	os.Exit(1)
}

func open(path string) (*netcdf.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return netcdf.Open(netcdf.OSStore{F: f}, nctype.NoWrite)
}

func run(pathA, pathB string) (int, error) {
	a, err := open(pathA)
	if err != nil {
		return 0, err
	}
	b, err := open(pathB)
	if err != nil {
		return 0, err
	}
	diffs := 0
	report := func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
		diffs++
	}
	ha, hb := a.Header(), b.Header()
	// Dimensions (order-insensitive by name).
	for _, d := range ha.Dims {
		j := hb.FindDim(d.Name)
		if j < 0 {
			report("dimension %q only in %s", d.Name, pathA)
			continue
		}
		if hb.Dims[j].Len != d.Len {
			report("dimension %q: %d vs %d", d.Name, d.Len, hb.Dims[j].Len)
		}
	}
	for _, d := range hb.Dims {
		if ha.FindDim(d.Name) < 0 {
			report("dimension %q only in %s", d.Name, pathB)
		}
	}
	if ha.NumRecs != hb.NumRecs {
		report("record counts differ: %d vs %d", ha.NumRecs, hb.NumRecs)
	}
	// Attributes.
	diffs += diffAttrs("global", ha.GAttrs, hb.GAttrs)
	// Variables.
	for i := range ha.Vars {
		va := &ha.Vars[i]
		j := hb.FindVar(va.Name)
		if j < 0 {
			report("variable %q only in %s", va.Name, pathA)
			continue
		}
		vb := &hb.Vars[j]
		if va.Type != vb.Type {
			report("variable %q: type %v vs %v", va.Name, va.Type, vb.Type)
			continue
		}
		if len(va.DimIDs) != len(vb.DimIDs) {
			report("variable %q: rank %d vs %d", va.Name, len(va.DimIDs), len(vb.DimIDs))
			continue
		}
		sameShape := true
		for k := range va.DimIDs {
			if ha.Dims[va.DimIDs[k]].Name != hb.Dims[vb.DimIDs[k]].Name {
				report("variable %q: dim %d is %q vs %q", va.Name, k,
					ha.Dims[va.DimIDs[k]].Name, hb.Dims[vb.DimIDs[k]].Name)
				sameShape = false
			}
		}
		diffs += diffAttrs(va.Name, va.Attrs, vb.Attrs)
		if *headerOnly || !sameShape {
			continue
		}
		n, err := diffData(a, b, i, j, va)
		if err != nil {
			return diffs, err
		}
		diffs += n
	}
	for j := range hb.Vars {
		if ha.FindVar(hb.Vars[j].Name) < 0 {
			report("variable %q only in %s", hb.Vars[j].Name, pathB)
		}
	}
	return diffs, nil
}

// diffAttrs walks each list once: b's attributes go into a map by name, and
// those a's walk leaves in it are reported in b's order by a second walk.
func diffAttrs(owner string, as, bs cdf.AttrList) int {
	diffs := 0
	inB := map[string]cdf.Attr{}
	bs.Walk(func(b cdf.Attr) { inB[b.Name] = b })
	as.Walk(func(a cdf.Attr) {
		b, ok := inB[a.Name]
		delete(inB, a.Name)
		switch {
		case !ok:
			fmt.Printf("%s attribute %q missing in second file\n", owner, a.Name)
			diffs++
		case a.Type != b.Type || a.Nelems != b.Nelems || string(a.Values) != string(b.Values):
			fmt.Printf("%s attribute %q differs\n", owner, a.Name)
			diffs++
		}
	})
	bs.Walk(func(b cdf.Attr) {
		if _, ok := inB[b.Name]; ok {
			fmt.Printf("%s attribute %q missing in first file\n", owner, b.Name)
			diffs++
		}
	})
	return diffs
}

func diffData(a, b *netcdf.Dataset, ia, ib int, v *cdf.Var) (int, error) {
	shape, err := a.VarShape(ia)
	if err != nil {
		return 0, err
	}
	n := int64(1)
	for _, s := range shape {
		n *= s
	}
	if n == 0 {
		return 0, nil
	}
	da := make([]float64, n)
	db := make([]float64, n)
	if v.Type == nctype.Char {
		ba := make([]byte, n)
		bb := make([]byte, n)
		if err := a.GetVar(ia, ba); err != nil {
			return 0, err
		}
		if err := b.GetVar(ib, bb); err != nil {
			return 0, err
		}
		for i := range ba {
			if ba[i] != bb[i] {
				fmt.Printf("variable %q: first text difference at element %d\n", v.Name, i)
				return 1, nil
			}
		}
		return 0, nil
	}
	if err := a.GetVar(ia, da); err != nil {
		return 0, err
	}
	if err := b.GetVar(ib, db); err != nil {
		return 0, err
	}
	count := 0
	first := int64(-1)
	for i := range da {
		if math.Abs(da[i]-db[i]) > *tol && !(math.IsNaN(da[i]) && math.IsNaN(db[i])) {
			if first < 0 {
				first = int64(i)
			}
			count++
		}
	}
	if count > 0 {
		fmt.Printf("variable %q: %d element(s) differ (first at %d: %v vs %v)\n",
			v.Name, count, first, da[first], db[first])
		return 1, nil
	}
	return 0, nil
}
