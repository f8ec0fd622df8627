// Package bench regenerates every table and figure in the paper's
// evaluation (Section 5). Each experiment runs the real code paths — SPIN
// machines from the root package, comparison systems from
// internal/baseline — on virtual time and formats the same rows the paper
// reports. Paper values are carried alongside for the EXPERIMENTS.md
// paper-vs-measured record; they are never fed back into the measurement.
package bench

import (
	"fmt"
	"strings"

	"spin"
	"spin/internal/netstack"
	"spin/internal/sal"
	"spin/internal/sim"
)

// Row is one line of a reproduced table: a label, the paper's values, and
// our measured values (same column order).
type Row struct {
	Label    string
	Paper    []float64
	Measured []float64
}

// Table is one reproduced artifact.
type Table struct {
	ID      string // "table2", "fig6", ...
	Title   string
	Columns []string // column headers (after the label column)
	Unit    string
	Rows    []Row
	Notes   []string
}

// Format renders the table with paper and measured values side by side.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s (%s) ==\n", t.ID, t.Title, t.Unit)
	fmt.Fprintf(&b, "%-34s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%22s", c)
	}
	fmt.Fprintln(&b)
	fmt.Fprintf(&b, "%-34s", "operation")
	for range t.Columns {
		fmt.Fprintf(&b, "%22s", "paper / measured")
	}
	fmt.Fprintln(&b)
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-34s", r.Label)
		for i := range t.Columns {
			paper, measured := "n/a", "n/a"
			if i < len(r.Paper) && r.Paper[i] >= 0 {
				paper = trimFloat(r.Paper[i])
			}
			if i < len(r.Measured) && r.Measured[i] >= 0 {
				measured = trimFloat(r.Measured[i])
			}
			fmt.Fprintf(&b, "%22s", paper+" / "+measured)
		}
		fmt.Fprintln(&b)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

func trimFloat(f float64) string {
	s := fmt.Sprintf("%.2f", f)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	return s
}

// NA marks an unsupported cell.
const NA = -1

// Experiment is a runnable reproduction unit.
type Experiment struct {
	ID          string
	Description string
	Run         func() (*Table, error)
}

// All returns every experiment, in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "system component sizes", RunTable1},
		{"table2", "protected communication overhead", RunTable2},
		{"table3", "thread management overhead", RunTable3},
		{"table4", "virtual memory operation overhead", RunTable4},
		{"table5", "network protocol latency and bandwidth", RunTable5},
		{"table5opt", "§5.3 latency-optimized drivers", RunTable5Optimized},
		{"table6", "protocol forwarding round-trip latency", RunTable6},
		{"table7", "extension sizes", RunTable7},
		{"fig5", "protocol graph structure", RunFig5},
		{"fig6", "video server CPU utilization vs clients", RunFig6},
		{"parallel", "multi-CPU strand scheduling throughput (work stealing)", RunParallelStrands},
		{"dispatcher", "dispatcher scaling with guards (§5.5)", RunDispatcherScaling},
		{"gc", "impact of automatic storage management (§5.5)", RunGC},
		{"http", "web server transaction latency (§5.4)", RunHTTP},
		{"ablation", "design-choice ablations (co-location, fast path, granularity)", RunAblation},
		{"c10m", "TCP connection scaling: one table, syncookie SYN path", RunC10M},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- shared helpers -------------------------------------------------------

// newSPINMachine boots a SPIN machine for benchmarks.
func newSPINMachine(name string, ip netstack.IPAddr) (*spin.Machine, error) {
	return spin.NewMachine(name, spin.Config{IP: ip})
}

// spinPair boots two SPIN machines joined by a NIC of the given model.
func spinPair(model sal.NICModel) (*spin.Machine, *spin.Machine, *sim.Cluster, error) {
	a, err := newSPINMachine("spin-a", netstack.Addr(10, 0, 0, 1))
	if err != nil {
		return nil, nil, nil, err
	}
	b, err := newSPINMachine("spin-b", netstack.Addr(10, 0, 0, 2))
	if err != nil {
		return nil, nil, nil, err
	}
	na := a.AddNIC(model)
	nb := b.AddNIC(model)
	if err := sal.Connect(na, nb); err != nil {
		return nil, nil, nil, err
	}
	return a, b, sim.NewCluster(a.Engine, b.Engine), nil
}

func micros(d sim.Duration) float64 { return d.Micros() }
