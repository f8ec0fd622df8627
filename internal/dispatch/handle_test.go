package dispatch

import (
	"maps"
	"slices"
	"testing"

	"spin/internal/sim"
	"spin/internal/trace"
)

// handleScenario defines "E" on d — a time-bounded primary, a handler that
// faults on every third raise and one that overruns the bound on every
// fifth, under a quarantine policy the faulting one exhausts — and raises it
// 30 times through raise, which gets the event's handle, returning the
// results.
func handleScenario(t *testing.T, d *Dispatcher, eng *sim.Engine, raise func(ev *Event, arg any) any) []any {
	t.Helper()
	d.SetQuarantinePolicy(QuarantinePolicy{FaultThreshold: 3})
	if err := d.Define("E", DefineOptions{
		Primary:    func(arg, _ any) any { return arg },
		Constraint: Constraint{TimeBound: 5 * sim.Microsecond},
	}); err != nil {
		t.Fatal(err)
	}
	_, _ = d.Install("E", func(arg, _ any) any {
		if arg.(int)%3 == 0 {
			panic("third")
		}
		return -arg.(int)
	}, InstallOptions{Installer: testIdent("faulty")})
	_, _ = d.Install("E", func(arg, _ any) any {
		if arg.(int)%5 == 0 {
			eng.Clock.Advance(10 * sim.Microsecond)
		}
		return 100 + arg.(int)
	}, InstallOptions{Installer: testIdent("slow")})
	ev := d.Event("E")
	var results []any
	for i := range 30 {
		results = append(results, raise(ev, i))
	}
	return results
}

// A raise by handle is the by-name raise minus its lookup: the same
// results, raise/abort/fault counters, quarantine and virtual time.
func TestRaiseEventMatchesRaise(t *testing.T) {
	byName, engName := newTestDispatcher()
	nameResults := handleScenario(t, byName, engName, func(_ *Event, arg any) any { return byName.Raise("E", arg) })
	byHandle, engHandle := newTestDispatcher()
	handleResults := handleScenario(t, byHandle, engHandle, byHandle.RaiseEvent)
	if !slices.Equal(nameResults, handleResults) {
		t.Errorf("results differ:\n by name   %v\n by handle %v", nameResults, handleResults)
	}
	collect := func(d *Dispatcher) map[string]float64 {
		m := map[string]float64{}
		d.Metrics(func(name string, v float64) { m[name] = v })
		return m
	}
	if a, b := collect(byName), collect(byHandle); !maps.Equal(a, b) {
		t.Errorf("metrics differ:\n by name   %v\n by handle %v", a, b)
	}
	raises, aborts, faults := eventStats(byHandle, "E")
	if raises != 30 || aborts == 0 || faults != 3 {
		t.Errorf("by-handle stats = %d raises, %d aborts, %d faults; want 30, >0, 3", raises, aborts, faults)
	}
	if q := byHandle.Quarantined(); len(q) != 1 || q[0].Owner.Name != "faulty" ||
		!slices.Equal(q, byName.Quarantined()) {
		t.Errorf("quarantine by handle %v, by name %v", q, byName.Quarantined())
	}
	if engName.Clock.Now() != engHandle.Clock.Now() {
		t.Errorf("virtual time by name %v, by handle %v", engName.Clock.Now(), engHandle.Clock.Now())
	}
}

// A raise by handle traces under the event's name, on both dispatch paths;
// a nil handle (Event of an undefined name) raises nothing and returns nil.
func TestRaiseEventTracesNameAndNilHandle(t *testing.T) {
	d, _ := newTestDispatcher()
	_ = d.Define("Fast", DefineOptions{Primary: func(_, _ any) any { return "fast" }})
	_ = d.Define("Walk", DefineOptions{Primary: func(_, _ any) any { return "walk" }})
	_, _ = d.Install("Walk", func(_, _ any) any { return "ext" }, InstallOptions{Installer: testIdent("ext")})
	tr := trace.New(8)
	d.SetTracer(tr)
	if got := d.RaiseEvent(d.Event("Fast"), nil); got != "fast" {
		t.Errorf("fast path = %v", got)
	}
	if got := d.RaiseEvent(d.Event("Walk"), nil); got != "ext" {
		t.Errorf("walk = %v", got)
	}
	recs := tr.Snapshot()
	if len(recs) != 2 || recs[0].Event != "Fast" || recs[1].Event != "Walk" || recs[1].Handlers != 2 {
		t.Errorf("records = %+v", recs)
	}
	ev := d.Event("Undefined")
	if ev != nil {
		t.Fatalf("Event of an undefined name = %v, want nil", ev)
	}
	if got := d.RaiseEvent(ev, nil); got != nil {
		t.Errorf("nil handle raised %v", got)
	}
	if got := len(tr.Snapshot()); got != 2 {
		t.Errorf("a nil-handle raise left a record: %d records", got)
	}
}

// The per-packet raises — a lone primary's direct call, an announcement
// nobody handles, and a primary with an extension, whose results the event
// keeps — allocate nothing by handle.
func TestRaiseByHandleAllocFree(t *testing.T) {
	d, _ := newTestDispatcher()
	_ = d.Define("Call", DefineOptions{Primary: func(arg, _ any) any { return arg }})
	_ = d.Define("Announce", DefineOptions{})
	_ = d.Define("Walk", DefineOptions{Primary: func(arg, _ any) any { return arg }})
	_, _ = d.Install("Walk", func(arg, _ any) any { return arg }, InstallOptions{Installer: testIdent("ext")})
	call, announce, walk := d.Event("Call"), d.Event("Announce"), d.Event("Walk")
	arg := any(&keyedArg{port: 7})
	if allocs := testing.AllocsPerRun(1000, func() {
		d.RaiseEvent(call, arg)
		d.RaiseEvent(announce, arg)
		d.RaiseEvent(walk, arg)
	}); allocs != 0 {
		t.Errorf("raise by handle: %v allocs, want 0", allocs)
	}
}

// A keyed event's demultiplexer keeps its handlers' results in storage the
// event holds, as RaiseEvent does, so a raise that reaches one matching
// keyed handler allocates nothing either.
func TestRaiseKeyedByHandleAllocFree(t *testing.T) {
	d, _ := newTestDispatcher()
	ke, err := d.DefineKeyed("Keyed", keyOfPort, DefineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	_, _ = ke.InstallKeyed(7, func(arg, _ any) any { hits++; return arg }, nil)
	ev := d.Event("Keyed")
	arg := any(&keyedArg{port: 7})
	if allocs := testing.AllocsPerRun(1000, func() {
		if got := d.RaiseEvent(ev, arg); got != arg {
			t.Fatalf("keyed raise returned %v, want its handler's result", got)
		}
	}); allocs != 0 {
		t.Errorf("keyed raise by handle: %v allocs, want 0", allocs)
	}
	if hits != 1001 {
		t.Errorf("keyed handler ran %d times, want 1001", hits)
	}
	// A keyed handler's fault after another's result leaves nothing held.
	_, _ = ke.InstallKeyed(7, func(any, any) any { panic("keyed fault") }, nil)
	d.RaiseEvent(ev, arg)
	if n := len(ke.results); n != 0 {
		t.Errorf("a faulted keyed raise left %d results held", n)
	}
}

// Tracing a raise by handle allocates nothing once each handler has run
// traced: its latency series' name is built on the first call, not on
// every one. Both dispatch paths: a lone primary's direct call and a
// primary with an extension installed, neither of which allocates
// untraced either.
func TestTracedRaiseByHandleAllocFree(t *testing.T) {
	d, _ := newTestDispatcher()
	_ = d.Define("Call", DefineOptions{Primary: func(arg, _ any) any { return arg }})
	_ = d.Define("Walk", DefineOptions{Primary: func(arg, _ any) any { return arg }})
	_, _ = d.Install("Walk", func(arg, _ any) any { return arg }, InstallOptions{Installer: testIdent("ext")})
	arg := any(&keyedArg{port: 7})
	tr := trace.New(8)
	for _, ev := range []*Event{d.Event("Call"), d.Event("Walk")} {
		d.SetTracer(nil)
		untraced := testing.AllocsPerRun(100, func() { d.RaiseEvent(ev, arg) })
		d.SetTracer(tr)
		if traced := testing.AllocsPerRun(1000, func() { d.RaiseEvent(ev, arg) }); traced != untraced {
			t.Errorf("raise of %s by handle: %v allocs traced, %v untraced", ev.name, traced, untraced)
		}
	}
	for _, series := range []string{"Call#primary", "Walk#primary", "Walk#ext"} {
		if h, ok := tr.Histogram(series); !ok {
			t.Errorf("no series %s", series)
		} else if h.Count() != 1001 {
			t.Errorf("series %s: %d samples, want 1001", series, h.Count())
		}
	}
}
