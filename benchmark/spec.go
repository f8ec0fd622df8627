package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
)

// metricDef declares one metric: its name, unit, which direction is better
// and — for end-to-end metrics — the share of the parent's median by which
// it may worsen before a change counts as a regression.
//
// The unit names the clock. Host-clock units (s, ns, ms, 1/s) are wall time
// on whatever box runs the benchmark; *_virt units are virtual time, which
// replays exactly from the seed. The two are never mixed in one metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system would see. Every workload
// reports every one of them, none is ever 0, and all but virt_us_per_op are
// host-clock medians over the run's fixed-work batches.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"virt_us_per_op", "us_virt", lower, 0.10},
	{"allocs_per_op", "count", lower, 0.05},
	{"alloc_kib_per_op", "KiB", lower, 0.05},
	{"heap_live_mib", "MiB", lower, 0.10},
}

// perLayer are the metrics of single layers, printed by the traced run.
// Layers are the internal/ module names. A metric that a workload does not
// define (spans off the socket path, goodput off TCP) reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// Counts and virtual-clock results read from the workload itself.
		{Name: "sim.events_per_op", Unit: "count", Better: lower},
		{Name: "sim.events_per_s", Unit: "1/s", Better: higher},
		{Name: "virt.latency_p50_us", Unit: "us_virt", Better: lower},
		{Name: "virt.latency_p99_us", Unit: "us_virt", Better: lower},
		{Name: "virt.goodput_mbps", Unit: "Mb/s_virt", Better: higher},
		{Name: "netstack.tcp.retransmits_per_mib", Unit: "count", Better: lower},
		{Name: "paper.rel_err_p50", Unit: "ratio", Better: lower},
		{Name: "paper.rel_err_max", Unit: "ratio", Better: lower},
		{Name: "trace.overhead_ratio", Unit: "ratio", Better: higher},
		{Name: "span.coverage_host", Unit: "ratio", Better: higher},
		{Name: "span.coverage_virt", Unit: "ratio", Better: higher},
	}
	for _, s := range traceSeries {
		defs = append(defs,
			metricDef{Name: s.metric + ".count", Unit: "count", Better: lower},
			metricDef{Name: s.metric + ".mean", Unit: "us_virt", Better: lower},
			metricDef{Name: s.metric + ".p99", Unit: "us_virt", Better: lower})
	}
	for _, s := range spanNames {
		defs = append(defs,
			metricDef{Name: "span." + s + ".host_share", Unit: "ratio", Better: lower},
			metricDef{Name: "span." + s + ".virt_share", Unit: "ratio", Better: lower})
	}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{Name: "cpu_share." + l, Unit: "ratio", Better: lower})
	}
	return append(defs, probeDefs...)
}()

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"` // no bounds: Bound stays 0
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The contract's ceilings.
const (
	maxWorkloads = 8
	maxEndToEnd  = 16
	maxPerLayer  = 128
	maxBound     = 0.25
)

// checkSpec holds BENCHMARK.json and the program in step: every workload
// and metric the file names is one the program emits and the other way
// round, with the same unit, direction and bound, and every name and count
// is within the contract's limits. It returns every disagreement.
func checkSpec(s *benchSpec) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			fail("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[n] {
			fail("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(s.Workloads) < 2 || len(s.Workloads) > maxWorkloads {
		fail("%d workloads, want 2..%d", len(s.Workloads), maxWorkloads)
	}
	if len(s.Workloads) != len(workloads) {
		fail("file has %d workloads, program has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			fail("workload %s: why must be 1..200 characters", w.Name)
		}
		if i < len(workloads) && (workloads[i].name != w.Name || workloads[i].why != w.Why) {
			fail("workload %d: file has %q (%q), program has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}

	metrics := func(kind string, file, program []metricDef, most int, bounded bool) {
		if len(file) < 1 || len(file) > most {
			fail("%d %s metrics, want 1..%d", len(file), kind, most)
		}
		if len(file) != len(program) {
			fail("file has %d %s metrics, program has %d", len(file), kind, len(program))
		}
		for i, m := range file {
			name(kind+" metric", m.Name)
			if !unitRE.MatchString(m.Unit) {
				fail("%s: unit %q", m.Name, m.Unit)
			}
			if m.Better != lower && m.Better != higher {
				fail("%s: better %q", m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > maxBound) {
				fail("%s: bound %v outside (0, %v]", m.Name, m.Bound, maxBound)
			}
			if i < len(program) && program[i] != m {
				fail("%s metric %d: file has %+v, program has %+v", kind, i, m, program[i])
			}
		}
	}
	metrics("end-to-end", s.EndToEnd, endToEnd, maxEndToEnd, true)
	metrics("per-layer", s.PerLayer, perLayer, maxPerLayer, false)
	return bad
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports: the contract's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// violations lists every correctness check that failed, for stderr.
	violations []string
	// detail is one line about the sample behind the metrics.
	detail string
}

// fill turns measured values into the result's metrics, insisting that
// exactly the declared names were measured.
func (r *result) fill(defs []metricDef, values map[string]float64) {
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			r.violate("metric %s was declared but not measured", d.Name)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		delete(values, d.Name)
	}
	extra := make([]string, 0, len(values))
	for n := range values {
		extra = append(extra, n)
	}
	sort.Strings(extra)
	for _, n := range extra {
		r.violate("metric %s was measured but not declared", n)
	}
}

func (r *result) violate(format string, args ...any) {
	r.Correct = false
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}
