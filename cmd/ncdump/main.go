// Command ncdump prints the CDL text representation of a netCDF classic
// file (CDF-1/2/5), like the Unidata ncdump utility. It operates on real
// files on the local filesystem, which this module's serial library writes
// natively.
//
// Usage:
//
//	ncdump [-h] file.nc
//
// -h prints only the header (no data section).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"pnetcdf/internal/cdf"
	"pnetcdf/internal/cmdutil"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
)

var headerOnly = flag.Bool("h", false, "show header information only, no data")

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		cmdutil.Usagef("usage: ncdump [-h] file.nc")
	}
	path := flag.Arg(0)
	f, err := os.Open(path)
	cmdutil.Fatal("ncdump", err)
	d, err := netcdf.Open(netcdf.OSStore{F: f}, nctype.NoWrite)
	cmdutil.Fatal("ncdump", err)
	err = dump(os.Stdout, d, strings.TrimSuffix(filepath.Base(path), ".nc"), !*headerOnly)
	cmdutil.Fatal("ncdump", err)
	cmdutil.Fatal("ncdump", f.Close())
}

func dump(w *os.File, d *netcdf.Dataset, name string, withData bool) error {
	h := d.Header()
	fmt.Fprintf(w, "netcdf %s {\n", name)
	if len(h.Dims) > 0 {
		fmt.Fprintln(w, "dimensions:")
		for _, dim := range h.Dims {
			if dim.IsUnlimited() {
				fmt.Fprintf(w, "\t%s = UNLIMITED ; // (%d currently)\n", dim.Name, h.NumRecs)
			} else {
				fmt.Fprintf(w, "\t%s = %d ;\n", dim.Name, dim.Len)
			}
		}
	}
	if len(h.Vars) > 0 {
		fmt.Fprintln(w, "variables:")
		for i := range h.Vars {
			v := &h.Vars[i]
			var dims []string
			for _, id := range v.DimIDs {
				dims = append(dims, h.Dims[id].Name)
			}
			decl := v.Name
			if len(dims) > 0 {
				decl += "(" + strings.Join(dims, ", ") + ")"
			}
			fmt.Fprintf(w, "\t%s %s ;\n", v.Type, decl)
			v.Attrs.Walk(func(a cdf.Attr) {
				fmt.Fprintf(w, "\t\t%s:%s = %s ;\n", v.Name, a.Name, attrCDL(a))
			})
		}
	}
	if h.GAttrs.Len() > 0 {
		fmt.Fprintln(w, "\n// global attributes:")
		h.GAttrs.Walk(func(a cdf.Attr) {
			fmt.Fprintf(w, "\t\t:%s = %s ;\n", a.Name, attrCDL(a))
		})
	}
	if withData && len(h.Vars) > 0 {
		fmt.Fprintln(w, "data:")
		for i := range h.Vars {
			if err := dumpVarData(w, d, i); err != nil {
				return err
			}
		}
	}
	fmt.Fprintln(w, "}")
	return nil
}

func attrCDL(a cdf.Attr) string {
	val, err := cdf.DecodeAttrValue(a)
	if err != nil {
		return "?"
	}
	if a.Type == nctype.Char {
		return fmt.Sprintf("%q", string(val.([]byte)))
	}
	return joinNumbers(val)
}

func joinNumbers(val any) string {
	var parts []string
	add := func(s string) { parts = append(parts, s) }
	switch vs := val.(type) {
	case []int8:
		for _, v := range vs {
			add(fmt.Sprintf("%db", v))
		}
	case []int16:
		for _, v := range vs {
			add(fmt.Sprintf("%ds", v))
		}
	case []int32:
		for _, v := range vs {
			add(fmt.Sprintf("%d", v))
		}
	case []int64:
		for _, v := range vs {
			add(fmt.Sprintf("%dL", v))
		}
	case []uint8:
		for _, v := range vs {
			add(fmt.Sprintf("%dub", v))
		}
	case []uint16:
		for _, v := range vs {
			add(fmt.Sprintf("%dus", v))
		}
	case []uint32:
		for _, v := range vs {
			add(fmt.Sprintf("%du", v))
		}
	case []uint64:
		for _, v := range vs {
			add(fmt.Sprintf("%dull", v))
		}
	case []float32:
		for _, v := range vs {
			add(fmt.Sprintf("%gf", v))
		}
	case []float64:
		for _, v := range vs {
			add(fmt.Sprintf("%g", v))
		}
	}
	return strings.Join(parts, ", ")
}

func dumpVarData(w *os.File, d *netcdf.Dataset, varid int) error {
	h := d.Header()
	v := &h.Vars[varid]
	shape := h.VarShape(v)
	n := int64(1)
	for _, s := range shape {
		n *= s
	}
	if n == 0 {
		fmt.Fprintf(w, " %s = ;\n", v.Name)
		return nil
	}
	const maxShown = 4096
	shown := n
	truncated := false
	if shown > maxShown {
		shown = maxShown
		truncated = true
	}
	var buf any
	switch v.Type {
	case nctype.Char:
		buf = make([]byte, n)
	case nctype.Byte:
		buf = make([]int8, n)
	case nctype.Short:
		buf = make([]int16, n)
	case nctype.Int:
		buf = make([]int32, n)
	case nctype.Float:
		buf = make([]float32, n)
	case nctype.Double:
		buf = make([]float64, n)
	case nctype.UByte:
		buf = make([]uint8, n)
	case nctype.UShort:
		buf = make([]uint16, n)
	case nctype.UInt:
		buf = make([]uint32, n)
	case nctype.Int64:
		buf = make([]int64, n)
	case nctype.UInt64:
		buf = make([]uint64, n)
	}
	if err := d.GetVar(varid, buf); err != nil {
		return err
	}
	fmt.Fprintf(w, " %s = ", v.Name)
	if v.Type == nctype.Char {
		fmt.Fprintf(w, "%q", string(truncateBytes(buf.([]byte), int(shown))))
	} else {
		fmt.Fprint(w, joinNumbersN(buf, int(shown)))
	}
	if truncated {
		fmt.Fprintf(w, ", ... (%d values total)", n)
	}
	fmt.Fprintln(w, " ;")
	return nil
}

func truncateBytes(b []byte, n int) []byte {
	if len(b) > n {
		return b[:n]
	}
	return b
}

func joinNumbersN(val any, n int) string {
	var parts []string
	add := func(s string) {
		if len(parts) < n {
			parts = append(parts, s)
		}
	}
	switch vs := val.(type) {
	case []int8:
		for _, v := range vs {
			add(fmt.Sprintf("%d", v))
		}
	case []int16:
		for _, v := range vs {
			add(fmt.Sprintf("%d", v))
		}
	case []int32:
		for _, v := range vs {
			add(fmt.Sprintf("%d", v))
		}
	case []int64:
		for _, v := range vs {
			add(fmt.Sprintf("%d", v))
		}
	case []uint8:
		for _, v := range vs {
			add(fmt.Sprintf("%d", v))
		}
	case []uint16:
		for _, v := range vs {
			add(fmt.Sprintf("%d", v))
		}
	case []uint32:
		for _, v := range vs {
			add(fmt.Sprintf("%d", v))
		}
	case []uint64:
		for _, v := range vs {
			add(fmt.Sprintf("%d", v))
		}
	case []float32:
		for _, v := range vs {
			add(fmt.Sprintf("%g", v))
		}
	case []float64:
		for _, v := range vs {
			add(fmt.Sprintf("%g", v))
		}
	}
	return strings.Join(parts, ", ")
}
