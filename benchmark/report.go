package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// The all-workload mode: every workload in a child process of its own, so no
// workload inherits another's heap, pools or peak RSS; one JSON result.

// report is the result file -compare reads.
type report struct {
	Env       env                        `json:"env"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	FailFrac  float64                 `json:"fail_frac"` // failed / attempted; any increase is a regression
	Metrics   map[string]reportMetric `json:"metrics"`
}

// reportMetric is a metric's median over the end-to-end runs (per-layer
// metrics come from the one traced run). Spread is the distance between the
// first and third quartile of the runs as a share of their median — what the
// median can move by for no reason; absent with a single run.
type reportMetric struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Spread *float64  `json:"spread,omitempty"`
	Runs   []float64 `json:"runs,omitempty"`
}

// quartileSpread is (Q3-Q1)/median with the quartiles of Python's
// statistics.quantiles(values, n=4), the rule the acceptance driver applies.
func quartileSpread(values []float64) float64 {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	m := len(xs)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return (cut(3) - cut(1)) / cut(2)
}

// child runs one workload once in a fresh process and parses its last line.
func child(self, workload string, seed uint64, seconds float64, trace int) (result, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return res, nil
}

func runAll(e env, runs int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(1, "%v", err)
	}
	rep := report{Env: e, Workloads: map[string]*workloadReport{}}
	for _, w := range workloads {
		wr := &workloadReport{Correct: true, Metrics: map[string]reportMetric{}}
		rep.Workloads[w.name] = wr
		byMetric := map[string][]float64{}
		add := func(res result) {
			wr.Correct = wr.Correct && res.Correct
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
		}
		for i := 0; i < runs; i++ {
			res, err := child(self, w.name, e.Seed+uint64(i), e.Seconds, 0)
			if err != nil {
				fatal(1, "%v", err)
			}
			add(res)
			for name, m := range res.Metrics {
				byMetric[name] = append(byMetric[name], m.Value)
			}
		}
		for _, m := range endToEnd {
			rm := reportMetric{Value: median(append([]float64(nil), byMetric[m.Name]...)), Unit: m.Unit}
			if runs > 1 {
				spread := quartileSpread(byMetric[m.Name])
				rm.Spread, rm.Runs = &spread, byMetric[m.Name]
			}
			wr.Metrics[m.Name] = rm
		}
		traced, err := child(self, w.name, e.Seed, e.Seconds, 1)
		if err != nil {
			fatal(1, "%v", err)
		}
		add(traced)
		for _, m := range perLayer {
			wr.Metrics[m.Name] = reportMetric{Value: traced.Metrics[m.Name].Value, Unit: m.Unit}
		}
		wr.FailFrac = float64(wr.Failed) / float64(wr.Attempted)

		fmt.Printf("## %s  attempted=%d failed=%d fail_frac=%g correct=%v\n", w.name, wr.Attempted, wr.Failed, wr.FailFrac, wr.Correct)
		for _, table := range [][]metricDecl{endToEnd, perLayer} {
			for _, m := range table {
				rm := wr.Metrics[m.Name]
				fmt.Printf("%-28s %14.6g %-6s", m.Name, rm.Value, m.Unit)
				if rm.Spread != nil {
					fmt.Printf(" spread %.2f%% of bound %.0f%%", 100**rm.Spread, 100*m.Bound)
				}
				fmt.Println()
			}
		}
	}
	printShares(rep)
	blob, err := json.MarshalIndent(rep, "", " ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(out), 0o755); err == nil {
			err = os.WriteFile(out, append(blob, '\n'), 0o644)
		}
	}
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Printf("\nresult: %s  (%s seed=%d seconds=%g runs=%d)\n", out, e, e.Seed, e.Seconds, runs)
	for _, wr := range rep.Workloads {
		if !wr.Correct {
			return 1
		}
	}
	return 0
}

// printShares prints, per workload, where a rank's wall time goes: the share
// of each kind of call into core, with put and get split into what the mpiio
// replay of the same bytes covers and what core adds on top (encode, view
// resolve, agreement).
func printShares(rep report) {
	cols := []string{"open", "define", "enddef", "put: core", "put: mpiio+below", "get: core", "get: mpiio+below", "close", "inq"}
	fmt.Printf("\n| workload |")
	for _, c := range cols {
		fmt.Printf(" %s |", c)
	}
	fmt.Printf("\n|---|")
	for range cols {
		fmt.Printf("---:|")
	}
	fmt.Println()
	for _, w := range workloads {
		v := func(name string) float64 { return rep.Workloads[w.name].Metrics[name].Value }
		put, get := v("core.put_ms"), v("core.get_ms")
		parts := []float64{
			v("core.open_ms"), v("core.define_ms"), v("core.enddef_ms"),
			v("core.self_put_ms"), put - v("core.self_put_ms"),
			v("core.self_get_ms"), get - v("core.self_get_ms"),
			v("core.close_ms"), v("core.inq_us") / 1e3,
		}
		var total float64
		for _, p := range parts {
			total += p
		}
		fmt.Printf("| %s |", w.name)
		for _, p := range parts {
			fmt.Printf(" %.1f%% |", 100*p/total)
		}
		fmt.Println()
	}
}
