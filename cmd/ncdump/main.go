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
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
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

func dump(w io.Writer, d *netcdf.Dataset, name string, withData bool) error {
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
	return joinNumbers(val, cdlSuffix[a.Type], math.MaxInt)
}

// cdlSuffix types an attribute's numbers in CDL: ncgen reads a bare integer
// as an int and a bare real as a double, and a lone L as an int too.
var cdlSuffix = map[nctype.Type]string{
	nctype.Byte: "b", nctype.Short: "s", nctype.Float: "f",
	nctype.UByte: "ub", nctype.UShort: "us", nctype.UInt: "u",
	nctype.Int64: "LL", nctype.UInt64: "ULL",
}

// joinNumbers formats the first limit numbers of val, a numeric slice, each
// followed by suffix.
func joinNumbers(val any, suffix string, limit int) string {
	rv := reflect.ValueOf(val)
	parts := make([]string, min(rv.Len(), limit))
	for i := range parts {
		parts[i] = fmt.Sprint(rv.Index(i)) + suffix
	}
	return strings.Join(parts, ", ")
}

func dumpVarData(w io.Writer, d *netcdf.Dataset, varid int) error {
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
	buf := cdf.NewSlice(v.Type, n)
	if err := d.GetVar(varid, buf); err != nil {
		return err
	}
	fmt.Fprintf(w, " %s = ", v.Name)
	if v.Type == nctype.Char {
		fmt.Fprintf(w, "%q", string(truncateBytes(buf.([]byte), int(shown))))
	} else {
		fmt.Fprint(w, joinNumbers(buf, "", int(shown)))
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
