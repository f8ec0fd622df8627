// Command benchmark is the one benchmark for the whole system: seven
// workloads over the virtual internet and the paper's own experiments,
// measured on two clocks that are never mixed, with per-module probes and
// a separate traced run. README.md explains every workload and metric.
//
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
//
// runs one workload and prints one JSON object as its last line: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Without --workload every workload is run, and without --trace both runs
// are made and merged into one JSON object; -selfcheck runs the timed suite
// twice and compares the two against the bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

const specFile = "BENCHMARK.json"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its inputs and outputs as parameters. It returns the
// process's exit code: 0 only when every check passed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "workload to run (default: all)")
	seed := fs.Uint64("seed", 1, "seed for topologies, documents and request choice")
	seconds := fs.Float64("seconds", 0, "how long one run measures (default: run_seconds of "+specFile+")")
	traceMode := fs.String("trace", "", "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics (default: both, merged)")
	scaleName := fs.String("scale", "full", "workload sizes: full or tiny")
	out := fs.String("out", "", "also write the suite's merged JSON to this file")
	selfcheck := fs.Bool("selfcheck", false, "run the timed suite twice and compare the two against the bounds")
	specPath := fs.String("spec", specFile, "path of "+specFile)
	results := fs.String("results", "benchmark/results", "directory for the span trace and the self-check table")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "benchmark: "+format+"\n", a...)
		return 1
	}

	spec, err := loadSpec(*specPath)
	if err != nil {
		return fail("%v (run from the repository root)", err)
	}
	if bad := checkSpec(spec); len(bad) > 0 {
		for _, b := range bad {
			fmt.Fprintln(stderr, "benchmark:", b)
		}
		return fail("%s and the program disagree", *specPath)
	}

	cfg := runConfig{seed: *seed, seconds: *seconds, artifacts: *results}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(spec.RunSeconds)
	}
	switch *scaleName {
	case "full":
	case "tiny":
		cfg.scale = scaleTiny
	default:
		return fail("unknown -scale %q", *scaleName)
	}
	if *traceMode != "" && *traceMode != "0" && *traceMode != "1" {
		return fail("-trace takes 0 or 1")
	}
	// One process, at most nproc threads of load.
	runtime.GOMAXPROCS(runtime.NumCPU())

	if *selfcheck {
		return selfCheck(cfg, spec, stdout, stderr)
	}
	if *workloadName == "" {
		return runSuite(workloads, cfg, *traceMode, *out, stdout, stderr)
	}
	w, ok := lookupWorkload(*workloadName)
	if !ok {
		return fail("unknown workload %q", *workloadName)
	}
	if *traceMode == "" {
		return runSuite([]workload{w}, cfg, *traceMode, *out, stdout, stderr)
	}

	// One workload, one mode: the driver's contract.
	var res *result
	if *traceMode == "1" {
		res, err = runTraced(w, cfg, nil)
	} else {
		res, err = runTimed(w, cfg)
	}
	if err != nil {
		return fail("%v", err)
	}
	report(w.name, res, stdout, stderr)
	return lastLine(res, res.Correct, stdout, stderr)
}

// report prints every metric of one result by name, with its unit, and its
// violations to stderr.
func report(workload string, res *result, stdout, stderr io.Writer) {
	if res.detail != "" {
		fmt.Fprintf(stdout, "%-20s %s\n", workload, res.detail)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(stdout, "%-20s %-40s %16.6g %s\n", workload, n, m.Value, m.Unit)
	}
	for _, v := range res.violations {
		fmt.Fprintln(stderr, "benchmark: VIOLATION:", v)
	}
}

// lastLine prints v as one line of JSON, the last of stdout, and returns
// the exit code: 0 only when everything was correct.
func lastLine(v any, correct bool, stdout, stderr io.Writer) int {
	line, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !correct {
		return 1
	}
	return 0
}

// suiteResult is the merged output of a whole-suite run, and the format of
// results/baseline.json.
type suiteResult struct {
	Seed      uint64                            `json:"seed"`
	Seconds   float64                           `json:"seconds"`
	NProc     int                               `json:"nproc"`
	GoVersion string                            `json:"go_version"`
	Correct   bool                              `json:"correct"`
	Attempted int                               `json:"attempted"`
	Failed    int                               `json:"failed"`
	EndToEnd  map[string]map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]map[string]metricValue `json:"per_layer"`
}

// runSuite runs the given workloads — timed, traced, or both — prints
// every metric, and ends with the merged JSON on one line.
func runSuite(selected []workload, cfg runConfig, traceMode, out string, stdout, stderr io.Writer) int {
	suite := suiteResult{
		Seed: cfg.seed, Seconds: cfg.seconds, NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		Correct:  true,
		EndToEnd: map[string]map[string]metricValue{},
		PerLayer: map[string]map[string]metricValue{},
	}
	book := func(w workload, into map[string]map[string]metricValue, res *result) {
		report(w.name, res, stdout, stderr)
		into[w.name] = res.Metrics
		suite.Correct = suite.Correct && res.Correct
		suite.Attempted += res.Attempted
		suite.Failed += res.Failed
	}
	measure := func() error {
		// The layer probes do not depend on the workload: measure them once.
		var probes map[string]float64
		for _, w := range selected {
			if traceMode != "1" {
				res, err := runTimed(w, cfg)
				if err != nil {
					return err
				}
				book(w, suite.EndToEnd, res)
			}
			if traceMode == "0" {
				continue
			}
			if probes == nil {
				var err error
				if probes, err = runProbes(cfg.scale); err != nil {
					return err
				}
			}
			res, err := runTraced(w, cfg, probes)
			if err != nil {
				return err
			}
			book(w, suite.PerLayer, res)
		}
		if out == "" {
			return nil
		}
		line, err := json.Marshal(suite)
		if err != nil {
			return err
		}
		return writeFile(out, line)
	}
	if err := measure(); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return lastLine(suite, suite.Correct, stdout, stderr)
}

func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
