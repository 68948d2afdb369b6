package bench

import (
	"fmt"
	"io"
)

// WriteFigure6 prints one Figure 6 chart as the table the paper plots:
// one row per partition, one column per process count, plus the serial
// baseline row.
func WriteFigure6(w io.Writer, fig *figure6) {
	fmt.Fprintf(w, "%s %d MB — %s — bandwidth (MB/s)\n",
		titleCase(fig.Op), fig.Bytes>>20, fig.Machine)
	fmt.Fprintf(w, "  array tt(Z=%d, Y=%d, X=%d) float\n", fig.Dims[0], fig.Dims[1], fig.Dims[2])
	fmt.Fprintf(w, "  %-14s", "partition")
	for _, p := range fig.Procs {
		fmt.Fprintf(w, "%8dp", p)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  %-14s%8.1f  (single process, whole array)\n", "serial netCDF", fig.SerialMBps)
	for _, part := range AllPartitions {
		pts, ok := fig.Points[part]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-14s", part.String())
		for _, v := range pts {
			fmt.Fprintf(w, "%9.1f", v)
		}
		fmt.Fprintln(w)
	}
}

// WriteFigure7 prints one Figure 7 chart as a table: one row per process
// count with both libraries' bandwidths.
func WriteFigure7(w io.Writer, fig *figure7) {
	fmt.Fprintf(w, "FLASH I/O (%s, %s) — %s — aggregate bandwidth (MB/s)\n",
		fig.File, fig.Block, fig.Machine)
	fmt.Fprintf(w, "  %8s %12s %12s %8s\n", "procs", "PnetCDF", "HDF5", "ratio")
	for i, p := range fig.Procs {
		ratio := 0.0
		if fig.HDF5[i] > 0 {
			ratio = fig.PnetCDF[i] / fig.HDF5[i]
		}
		fmt.Fprintf(w, "  %8d %12.1f %12.1f %7.2fx\n", p, fig.PnetCDF[i], fig.HDF5[i], ratio)
	}
}

func titleCase(s string) string {
	if s == "" {
		return s
	}
	if s[0] >= 'a' && s[0] <= 'z' {
		return string(s[0]-32) + s[1:]
	}
	return s
}
