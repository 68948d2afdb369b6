package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// -compare old.json new.json: one row per (workload, metric) with both
// values, their ratio (new over old, the base), the bound and a verdict.
// Per-layer metrics have no bound and say where a change landed, not whether
// it is allowed; their verdict is "info".

const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved" // a recorded quartile spread exceeds the bound
	info       = "info"
)

// verdict judges an end-to-end metric. A spread is nil when the file holds a
// single run; then only the bound decides.
func verdict(m metricDecl, old, new reportMetric) string {
	for _, s := range []*float64{old.Spread, new.Spread} {
		if s != nil && *s > m.Bound {
			return unresolved
		}
	}
	gain := new.Value - old.Value
	if m.Better == "lower" {
		gain = -gain
	}
	switch limit := m.Bound * old.Value; {
	case gain < -limit:
		return worse
	case gain > limit:
		return better
	}
	return same
}

func loadReport(path string) (report, error) {
	var rep report
	blob, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(blob, &rep)
	}
	if err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// compareFiles prints the table and returns the exit code: 1 if any row is
// worse, 2 if a file cannot be read.
func compareFiles(w io.Writer, oldPath, newPath string) int {
	oldRep, err := loadReport(oldPath)
	if err == nil {
		var newRep report
		if newRep, err = loadReport(newPath); err == nil {
			return compareReports(w, oldRep, newRep)
		}
	}
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	return 2
}

func compareReports(w io.Writer, oldRep, newRep report) int {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tnew/old\tbound\tverdict")
	code := 0
	row := func(wl, metric string, old, new float64, bound, v string) {
		ratio := "-"
		if old != 0 {
			ratio = fmt.Sprintf("%.4f", new/old)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%s\t%s\n", wl, metric, old, new, ratio, bound, v)
		if v == worse {
			code = 1
		}
	}
	for _, wl := range workloads {
		o, n := oldRep.Workloads[wl.name], newRep.Workloads[wl.name]
		if o == nil || n == nil {
			fmt.Fprintf(tw, "%s\t(missing from a file)\t\t\t\t\t%s\n", wl.name, unresolved)
			continue
		}
		for _, m := range endToEnd {
			row(wl.name, m.Name, o.Metrics[m.Name].Value, n.Metrics[m.Name].Value,
				fmt.Sprintf("%g%%", 100*m.Bound), verdict(m, o.Metrics[m.Name], n.Metrics[m.Name]))
		}
		v := same
		if n.FailFrac > o.FailFrac {
			v = worse
		}
		row(wl.name, "fail_frac", o.FailFrac, n.FailFrac, "any", v)
		for _, m := range perLayer {
			row(wl.name, m.Name, o.Metrics[m.Name].Value, n.Metrics[m.Name].Value, "", info)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	return code
}
