// Command nccopy copies a netCDF classic file, optionally converting the
// format version and re-laying-out the data with alignment — the
// re-organization role the paper assigns to external tools like the netCDF
// Operators ("these features can all be achieved by external software").
//
// Usage:
//
//	nccopy [-k 1|2|5] [-align N] in.nc out.nc
//
// -k converts the output format version (default: keep the input's);
// -align rounds the data-section start and each fixed variable's offset up
// to N bytes (useful to match a file system stripe).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"pnetcdf/internal/cdf"
	"pnetcdf/internal/cmdutil"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
)

var (
	kFlag     = flag.Int("k", 0, "output kind: 1=classic, 2=64-bit offset, 5=64-bit data (0: same as input)")
	alignFlag = flag.Int64("align", 1, "align data section and fixed variables to this many bytes")
)

const usage = "usage: nccopy [-k 1|2|5] [-align N] in.nc out.nc"

func main() {
	flag.Parse()
	if flag.NArg() != 2 {
		cmdutil.Usagef(usage)
	}
	if _, ok := createMode(*kFlag); !ok && *kFlag != 0 {
		cmdutil.Usagef("nccopy: bad -k %d\n%s", *kFlag, usage)
	}
	cmdutil.Fatal("nccopy", run(flag.Arg(0), flag.Arg(1), *kFlag, *alignFlag))
}

// createMode is the create mode of format version k (1, 2 or 5).
func createMode(k int) (int, bool) {
	switch k {
	case nctype.FormatClassic:
		return nctype.Clobber, true
	case nctype.Format64Bit:
		return nctype.Clobber | nctype.Bit64Offset, true
	case nctype.Format64Data:
		return nctype.Clobber | nctype.Bit64Data, true
	}
	return 0, false
}

// run copies inPath to outPath as format version kind (0: the input's),
// aligned to align bytes. It refuses an output that is the input file:
// creating the output truncates it before any data is read.
func run(inPath, outPath string, kind int, align int64) (err error) {
	in, err := os.Open(inPath)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, in.Close()) }()
	if out, err := os.Stat(outPath); err == nil {
		st, err := in.Stat()
		if err != nil {
			return err
		}
		if os.SameFile(st, out) {
			return fmt.Errorf("%s and %s are the same file", inPath, outPath)
		}
	}
	src, err := netcdf.Open(netcdf.OSStore{F: in}, nctype.NoWrite)
	if err != nil {
		return err
	}
	if kind == 0 {
		kind = src.Header().Version
	}
	mode, ok := createMode(kind)
	if !ok {
		return fmt.Errorf("bad -k %d", kind)
	}
	outF, err := os.OpenFile(outPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	dst, err := netcdf.Create(netcdf.OSStore{F: outF}, mode,
		netcdf.WithHeaderAlign(align))
	if err != nil {
		return err
	}
	if err := copyDataset(src, dst); err != nil {
		return err
	}
	return dst.Close()
}

func copyDataset(src, dst *netcdf.Dataset) error {
	h := src.Header()
	// Dimensions, in order.
	for _, d := range h.Dims {
		if _, err := dst.DefDim(d.Name, d.Len); err != nil {
			return err
		}
	}
	// Global attributes.
	if err := copyAttrs(src, dst, netcdf.GlobalID, netcdf.GlobalID); err != nil {
		return err
	}
	// Variables and their attributes.
	for i := range h.Vars {
		v := &h.Vars[i]
		id, err := dst.DefVar(v.Name, v.Type, v.DimIDs)
		if err != nil {
			return err
		}
		if err := copyAttrs(src, dst, i, id); err != nil {
			return err
		}
	}
	if err := dst.EndDef(); err != nil {
		return err
	}
	// Data, variable by variable, record-batched for record variables.
	for i := range h.Vars {
		if err := copyVarData(src, dst, i); err != nil {
			return fmt.Errorf("variable %q: %w", h.Vars[i].Name, err)
		}
	}
	return nil
}

func copyAttrs(src, dst *netcdf.Dataset, fromID, toID int) error {
	names, err := src.AttrNames(fromID)
	if err != nil {
		return err
	}
	for _, name := range names {
		typ, val, err := src.GetAttr(fromID, name)
		if err != nil {
			return err
		}
		if err := dst.PutAttr(toID, name, typ, val); err != nil {
			return err
		}
	}
	return nil
}

func copyVarData(src, dst *netcdf.Dataset, varid int) error {
	shape, err := src.VarShape(varid)
	if err != nil {
		return err
	}
	_, typ, _, err := src.InqVar(varid)
	if err != nil {
		return err
	}
	n := int64(1)
	for _, s := range shape {
		n *= s
	}
	if n == 0 {
		return nil
	}
	buf := cdf.NewSlice(typ, n)
	if err := src.GetVar(varid, buf); err != nil {
		return err
	}
	start := make([]int64, len(shape))
	return dst.PutVara(varid, start, shape, buf)
}
