package dispatch

import (
	"sync"
	"testing"

	"spin/internal/domain"
	"spin/internal/sim"
	"spin/internal/trace"
)

func testIdent(name string) domain.Identity { return domain.Identity{Name: name} }

// Fast path: a traced single-handler raise produces one ring record with
// the right shape, and feeds both the event and per-handler series.
// Disabling tracing stops recording immediately.
func TestRaiseTracedFastPath(t *testing.T) {
	d, eng := newTestDispatcher()
	_ = d.Define("Traced.Fast", DefineOptions{
		Primary: func(_, _ any) any {
			eng.Clock.Advance(3 * sim.Microsecond)
			return "ok"
		},
	})
	tr := trace.New(64)
	d.SetTracer(tr)
	if d.Tracer() != tr {
		t.Fatal("Tracer() did not return the installed tracer")
	}
	if got := d.Raise("Traced.Fast", nil); got != "ok" {
		t.Fatalf("Raise = %v", got)
	}
	recs := tr.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("ring records = %d, want 1", len(recs))
	}
	r := recs[0]
	if r.Event != "Traced.Fast" || r.Origin != "dispatch" || r.Handlers != 1 ||
		r.Outcome != trace.OutcomeOK || r.Duration != 3*sim.Microsecond {
		t.Errorf("record = %+v", r)
	}
	if h, ok := tr.Histogram("Traced.Fast"); !ok || h.Count() != 1 {
		t.Error("event histogram missing")
	}
	if h, ok := tr.Histogram("Traced.Fast#primary"); !ok || h.Count() != 1 {
		t.Error("per-handler histogram missing")
	}
	d.SetTracer(nil)
	if d.Tracer() != nil {
		t.Fatal("Tracer() non-nil after disable")
	}
	d.Raise("Traced.Fast", nil)
	if got := len(tr.Snapshot()); got != 1 {
		t.Errorf("records after disable = %d, want 1", got)
	}
}

// Slow path: guards, an over-bound handler and a faulting handler are
// classified in the ring record, and each invoked handler gets a latency
// series keyed by its installer.
func TestRaiseTracedSlowPathOutcomes(t *testing.T) {
	d, eng := newTestDispatcher()
	_ = d.Define("Traced.Slow", DefineOptions{
		Constraint: Constraint{TimeBound: 5 * sim.Microsecond},
		Primary:    func(_, _ any) any { return "primary" },
	})
	_, _ = d.Install("Traced.Slow", func(_, _ any) any {
		eng.Clock.Advance(50 * sim.Microsecond) // over the bound: aborted
		return "slow"
	}, InstallOptions{Installer: testIdent("hog")})
	_, _ = d.Install("Traced.Slow", func(_, _ any) any { return "skipped" },
		InstallOptions{Installer: testIdent("gated"), Guard: func(any) bool { return false }})
	tr := trace.New(64)
	d.SetTracer(tr)

	d.Raise("Traced.Slow", nil)
	recs := tr.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("ring records = %d, want 1", len(recs))
	}
	if r := recs[0]; r.Handlers != 2 || r.Outcome != trace.OutcomeAborted {
		t.Errorf("record = %+v, want 2 handlers ran, outcome abort", r)
	}
	if h, ok := tr.Histogram("Traced.Slow#hog"); !ok || h.Count() != 1 {
		t.Error("hog handler series missing")
	}
	if _, ok := tr.Histogram("Traced.Slow#gated"); ok {
		t.Error("guarded-out handler must not be observed")
	}

	// A faulting handler is contained and classified as a fault.
	_ = d.Define("Traced.Fault", DefineOptions{
		Primary: func(_, _ any) any { return nil },
	})
	_, _ = d.Install("Traced.Fault", func(_, _ any) any { panic("boom") },
		InstallOptions{Installer: testIdent("bad")})
	d.Raise("Traced.Fault", nil)
	recs = tr.Snapshot()
	last := recs[len(recs)-1]
	if last.Event != "Traced.Fault" || last.Outcome != trace.OutcomeFaulted {
		t.Errorf("fault record = %+v", last)
	}
}

// Torture (run under -race): the clock's owner raises with tracing enabled
// while another goroutine toggles the tracer on and off. Record totals must
// be consistent with the raises that saw a tracer.
func TestRaiseTracedConcurrentToggle(t *testing.T) {
	d, _ := newTestDispatcher()
	_ = d.Define("Traced.Toggle", DefineOptions{Primary: func(_, _ any) any { return nil }})
	tr := trace.New(1024)
	const total = 80000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			d.SetTracer(tr)
			d.SetTracer(nil)
		}
		d.SetTracer(tr)
	}()
	for i := 0; i < total; i++ {
		d.Raise("Traced.Toggle", i)
	}
	wg.Wait()
	raises, _, _ := eventStats(d, "Traced.Toggle")
	if raises != total {
		t.Errorf("raises = %d, want %d", raises, total)
	}
	if pub := tr.Ring().Published(); pub > total {
		t.Errorf("published %d records from %d raises", pub, total)
	}
}
