package main

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
)

// aaRow is one end-to-end metric of one workload in the two halves of an
// A/A run: the same code measured twice.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	// Worse is how much worse the worse half is than the better one, as a
	// share of the better one; Bound is what the metric allows.
	Worse  float64 `json:"worse"`
	Bound  float64 `json:"bound"`
	Breach bool    `json:"breach"`
}

// worseBy returns how much worse b is than a as a share of a, given which
// direction is better; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// selfCheck runs the timed suite twice in one process and compares the two
// halves metric by metric against the bounds in BENCHMARK.json: if the
// benchmark cannot tell a commit from itself within a bound, that bound is
// not one it can enforce. The table goes to stdout and results/aa.json.
func selfCheck(cfg runConfig, spec *benchSpec, stdout, stderr io.Writer) int {
	var halves [2]map[string]*result
	for h := range halves {
		halves[h] = map[string]*result{}
		for _, w := range workloads {
			res, err := runTimed(w, cfg)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			if !res.Correct {
				report(w.name, res, stdout, stderr)
				return 1
			}
			halves[h][w.name] = res
		}
	}
	var rows []aaRow
	breaches := 0
	fmt.Fprintf(stdout, "%-20s %-18s %14s %14s %8s %6s\n", "workload", "metric", "A", "B", "worse", "bound")
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			a, b := halves[0][w.name].Metrics[m.Name].Value, halves[1][w.name].Metrics[m.Name].Value
			worse := worseBy(a, b, m.Better)
			if back := worseBy(b, a, m.Better); back > worse {
				worse = back
			}
			row := aaRow{w.name, m.Name, m.Unit, a, b, worse, m.Bound, worse > m.Bound}
			rows = append(rows, row)
			flag := ""
			if row.Breach {
				flag = "  BREACH"
				breaches++
			}
			fmt.Fprintf(stdout, "%-20s %-18s %14.6g %14.6g %7.2f%% %5.0f%%%s\n",
				row.Workload, row.Metric, row.A, row.B, 100*row.Worse, 100*row.Bound, flag)
		}
	}
	raw, err := json.MarshalIndent(rows, "", " ")
	if err == nil {
		err = writeFile(filepath.Join(cfg.artifacts, "aa.json"), raw)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if breaches > 0 {
		fmt.Fprintf(stderr, "benchmark: %d A/A breaches: lengthen the batches before widening a bound\n", breaches)
		return 1
	}
	return 0
}
