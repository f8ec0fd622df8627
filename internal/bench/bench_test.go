package bench

import (
	"path/filepath"
	"strings"
	"testing"

	"spin/internal/netstack"
)

// These tests assert the *shape* of each reproduced artifact: orderings,
// factors and crossovers from the paper that must hold regardless of exact
// calibration. Exact values are recorded in EXPERIMENTS.md.

func mustRun(t *testing.T, id string) *Table {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %q missing", id)
	}
	table, err := e.Run()
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return table
}

func measured(t *testing.T, table *Table, label string, col int) float64 {
	t.Helper()
	for _, r := range table.Rows {
		if r.Label == label {
			if col >= len(r.Measured) {
				t.Fatalf("%s: row %q has %d cols", table.ID, label, len(r.Measured))
			}
			return r.Measured[col]
		}
	}
	t.Fatalf("%s: row %q missing", table.ID, label)
	return 0
}

// Every experiment gives back each pooled packet it took once it has
// measured, so paper_eval runs them back to back with a steady live count.
// LivePackets is process-wide: no test in this package may use packets in
// parallel with this one.
func TestExperimentsReturnPackets(t *testing.T) {
	for _, e := range All() {
		live := netstack.LivePackets()
		if _, err := e.Run(); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if got := netstack.LivePackets(); got != live {
			t.Errorf("%s: %d pooled packets live after it ran, %d before", e.ID, got, live)
		}
	}
}

func TestAllExperimentsRegistered(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if ids[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
		if e.Run == nil || e.Description == "" {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	for _, want := range []string{"table1", "table2", "table3", "table4", "table5",
		"table5opt", "table6", "table7", "fig5", "fig6", "dispatcher", "gc", "http", "ablation"} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup of unknown id succeeded")
	}
}

func TestTable2Shape(t *testing.T) {
	tb := mustRun(t, "table2")
	inKernel := measured(t, tb, "Protected in-kernel call", 2)
	spinSys := measured(t, tb, "System call", 2)
	osfXAS := measured(t, tb, "Cross-address space call", 0)
	machXAS := measured(t, tb, "Cross-address space call", 1)
	spinXAS := measured(t, tb, "Cross-address space call", 2)

	if inKernel > 0.2 {
		t.Errorf("in-kernel call = %v µs, want ≈0.13", inKernel)
	}
	// The paper's headline: in-kernel calls are orders of magnitude below
	// any protected alternative.
	if spinSys < 20*inKernel {
		t.Errorf("syscall (%v) not ≫ in-kernel call (%v)", spinSys, inKernel)
	}
	if !(spinXAS < machXAS && machXAS < osfXAS) {
		t.Errorf("cross-AS ordering broken: spin=%v mach=%v osf=%v", spinXAS, machXAS, osfXAS)
	}
	if osfXAS < 5*machXAS {
		t.Errorf("OSF/1 cross-AS (%v) should be ≫ Mach (%v)", osfXAS, machXAS)
	}
}

func TestTable3Shape(t *testing.T) {
	tb := mustRun(t, "table3")
	// Columns: OSF kern, OSF user, Mach kern, Mach user, SPIN kern,
	// layered, integrated.
	fj := func(col int) float64 { return measured(t, tb, "Fork-Join", col) }
	pp := func(col int) float64 { return measured(t, tb, "Ping-Pong", col) }

	if !(fj(4) < fj(2) && fj(2) < fj(0)) {
		t.Errorf("kernel Fork-Join ordering: spin=%v mach=%v osf=%v", fj(4), fj(2), fj(0))
	}
	if fj(0) < 5*fj(4) {
		t.Errorf("SPIN kernel fork-join (%v) should be ≫5x cheaper than OSF/1 (%v)", fj(4), fj(0))
	}
	if !(fj(6) < fj(5)) {
		t.Errorf("integrated (%v) should beat layered (%v)", fj(6), fj(5))
	}
	if !(fj(5) < fj(1)) {
		t.Errorf("SPIN layered (%v) should beat OSF user (%v)", fj(5), fj(1))
	}
	if !(pp(4) < pp(0)+5) {
		t.Errorf("SPIN kernel ping-pong (%v) should not exceed OSF (%v)", pp(4), pp(0))
	}
}

func TestTable4Shape(t *testing.T) {
	tb := mustRun(t, "table4")
	for _, row := range []string{"Fault", "Trap", "Prot1", "Prot100", "Appel1", "Appel2"} {
		osf := measured(t, tb, row, 0)
		mach := measured(t, tb, row, 1)
		spin := measured(t, tb, row, 2)
		if !(spin < osf && spin < mach) {
			t.Errorf("%s: SPIN (%v) must beat OSF (%v) and Mach (%v)", row, spin, osf, mach)
		}
		if spin*2 > osf {
			t.Errorf("%s: SPIN (%v) should be well under half of OSF (%v)", row, spin, osf)
		}
	}
	// Mach's lazy unprotection: Unprot100 ≪ Prot100 on Mach, not on OSF.
	if measured(t, tb, "Unprot100", 1)*3 > measured(t, tb, "Prot100", 1) {
		t.Error("Mach lazy unprotect not visible")
	}
	if measured(t, tb, "Unprot100", 0)*2 < measured(t, tb, "Prot100", 0) {
		t.Error("OSF unprotect should cost like protect")
	}
}

func TestDispatcherScalingShape(t *testing.T) {
	tb := mustRun(t, "dispatcher")
	base := measured(t, tb, "baseline (no extra handlers)", 0)
	f50 := measured(t, tb, "+50 guards, all false", 0)
	t50 := measured(t, tb, "+50 guards, all true", 0)
	if !(base < f50 && f50 < t50) {
		t.Fatalf("ordering broken: %v %v %v", base, f50, t50)
	}
	// 50 false guards ≈ +20µs (0.4µs each).
	if d := f50 - base; d < 15 || d > 25 {
		t.Errorf("false-guard increment = %v µs, want ≈20", d)
	}
	// Invoked handlers cost more than skipped guards.
	if t50-f50 <= 0 {
		t.Error("invoked handlers added no cost")
	}
}

func TestGCShape(t *testing.T) {
	tb := mustRun(t, "gc")
	on := measured(t, tb, "protected in-kernel call", 0)
	off := measured(t, tb, "protected in-kernel call", 1)
	if on != off {
		t.Errorf("collector changed the fast path: %v vs %v", on, off)
	}
	heavyOn := measured(t, tb, "allocation-heavy client (per alloc)", 0)
	heavyOff := measured(t, tb, "allocation-heavy client (per alloc)", 1)
	if heavyOn <= heavyOff {
		t.Errorf("collector free on allocation-heavy path: on=%v off=%v", heavyOn, heavyOff)
	}
}

func TestAblationShape(t *testing.T) {
	tb := mustRun(t, "ablation")
	withColoc := measured(t, tb, "co-location: VM fault handling", 0)
	without := measured(t, tb, "co-location: VM fault handling", 1)
	if without < 2*withColoc {
		t.Errorf("co-location buys <2x: with=%v without=%v", withColoc, without)
	}
	fast := measured(t, tb, "dispatcher direct-call path", 0)
	slow := measured(t, tb, "dispatcher direct-call path", 1)
	if slow < 3*fast {
		t.Errorf("fast path buys <3x: %v vs %v", fast, slow)
	}
	proc := measured(t, tb, "alloc+map one page: proc call", 0)
	sys := measured(t, tb, "alloc+map one page: syscalls", 0)
	xas := measured(t, tb, "alloc+map one page: cross-AS", 0)
	if !(proc < sys && sys < xas) {
		t.Errorf("granularity ordering: %v %v %v", proc, sys, xas)
	}
	if xas < 5*proc {
		t.Errorf("cross-AS composition should be ≫ proc-call composition: %v vs %v", xas, proc)
	}
}

func TestHTTPShape(t *testing.T) {
	tb := mustRun(t, "http")
	spinMS := measured(t, tb, "cached document", 0)
	osfMS := measured(t, tb, "cached document", 1)
	if spinMS >= osfMS {
		t.Errorf("SPIN server (%v ms) must beat OSF/1 (%v ms)", spinMS, osfMS)
	}
	spinCold := measured(t, tb, "uncached document (disk)", 0)
	if spinCold <= spinMS {
		t.Error("cold transaction should cost more than cached")
	}
}

func TestFig6Shape(t *testing.T) {
	tb := mustRun(t, "fig6")
	// Monotone growth in clients; SPIN below OSF at every point; roughly
	// half at the high end.
	var prevSpin, prevOSF float64
	for _, r := range tb.Rows {
		spinU, osfU := r.Measured[0], r.Measured[1]
		if spinU >= osfU {
			t.Errorf("%s: SPIN %v >= OSF %v", r.Label, spinU, osfU)
		}
		if spinU < prevSpin || osfU < prevOSF {
			t.Errorf("%s: utilization not monotone", r.Label)
		}
		prevSpin, prevOSF = spinU, osfU
	}
	last := tb.Rows[len(tb.Rows)-1]
	ratio := last.Measured[0] / last.Measured[1]
	if ratio < 0.25 || ratio > 0.7 {
		t.Errorf("14-client ratio = %v, want ≈0.5", ratio)
	}
}

func TestTable5Shape(t *testing.T) {
	tb := mustRun(t, "table5")
	// Ethernet: equal bandwidth (wire-limited); SPIN lower latency.
	if eth0, eth1 := measured(t, tb, "Ethernet", 2), measured(t, tb, "Ethernet", 3); eth0 != eth1 {
		t.Errorf("Ethernet bandwidth differs: %v vs %v (should be wire-limited)", eth0, eth1)
	}
	if osf, spin := measured(t, tb, "Ethernet", 0), measured(t, tb, "Ethernet", 1); spin >= osf {
		t.Errorf("Ethernet latency: spin=%v osf=%v", spin, osf)
	}
	// ATM: SPIN wins both.
	if osf, spin := measured(t, tb, "ATM", 0), measured(t, tb, "ATM", 1); spin >= osf {
		t.Errorf("ATM latency: spin=%v osf=%v", spin, osf)
	}
	if osf, spin := measured(t, tb, "ATM", 2), measured(t, tb, "ATM", 3); spin <= osf {
		t.Errorf("ATM bandwidth: spin=%v osf=%v", spin, osf)
	}
}

func TestTable6Shape(t *testing.T) {
	tb := mustRun(t, "table6")
	for _, medium := range []string{"Ethernet", "ATM"} {
		if osf, spin := measured(t, tb, medium, 0), measured(t, tb, medium, 1); spin >= osf {
			t.Errorf("%s TCP forwarding: spin=%v osf=%v", medium, spin, osf)
		}
		if osf, spin := measured(t, tb, medium, 2), measured(t, tb, medium, 3); spin >= osf {
			t.Errorf("%s UDP forwarding: spin=%v osf=%v", medium, spin, osf)
		}
	}
}

func TestTable1And7Counts(t *testing.T) {
	t1 := mustRun(t, "table1")
	total := measured(t, t1, "total kernel", 0)
	if total < 3000 {
		t.Errorf("total kernel lines = %v, implausibly small", total)
	}
	t7 := mustRun(t, "table7")
	tcp := measured(t, t7, "TCP", 0)
	http := measured(t, t7, "HTTP", 0)
	if tcp <= http {
		t.Errorf("TCP (%v lines) should dwarf HTTP (%v)", tcp, http)
	}
	// The TCP row counts the whole engine: every non-test tcp*.go file.
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(root, "internal/netstack/tcp*.go"))
	var engine []string
	for _, f := range files {
		if !strings.HasSuffix(f, "_test.go") {
			engine = append(engine, strings.TrimPrefix(f, root+string(filepath.Separator)))
		}
	}
	lines, _, err := countStats(root, engine...)
	if err != nil {
		t.Fatal(err)
	}
	if tcp != float64(lines) {
		t.Errorf("TCP row counts %v lines, %v count %d", tcp, engine, lines)
	}
}

func TestFig5GraphStructure(t *testing.T) {
	tb := mustRun(t, "fig5")
	joined := strings.Join(tb.Notes, "\n")
	for _, want := range []string{"IP.PacketArrived", "forward-ext", "video-multicast", "TCP listeners: 80"} {
		if !strings.Contains(joined, want) {
			t.Errorf("graph missing %q", want)
		}
	}
}

func TestTableFormat(t *testing.T) {
	tb := &Table{
		ID: "x", Title: "T", Columns: []string{"A"}, Unit: "µs",
		Rows:  []Row{{Label: "r", Paper: []float64{1.5}, Measured: []float64{NA}}},
		Notes: []string{"n"},
	}
	out := tb.Format()
	for _, want := range []string{"== x: T (µs) ==", "1.5 / n/a", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q in:\n%s", want, out)
		}
	}
}
