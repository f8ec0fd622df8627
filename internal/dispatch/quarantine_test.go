package dispatch

import (
	"strings"
	"sync"
	"testing"

	"spin/internal/domain"
	"spin/internal/faultinject"
	"spin/internal/metrics"
	"spin/internal/sim"
	"spin/internal/trace"
)

func TestQuarantineAtFaultThreshold(t *testing.T) {
	d, _ := newTestDispatcher()
	d.SetQuarantinePolicy(QuarantinePolicy{FaultThreshold: 3})
	var notified []QuarantineRecord
	d.OnQuarantine(func(r QuarantineRecord) { notified = append(notified, r) })
	primaryRan := 0
	_ = d.Define("E", DefineOptions{
		Primary: func(_, _ any) any { primaryRan++; return "primary" },
	})
	_, err := d.Install("E", func(_, _ any) any { panic("broken extension") },
		InstallOptions{Installer: domain.Identity{Name: "bad-ext"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		d.Raise("E", nil)
	}
	// Faults 1..3 contained; at 3 the handler is unlinked, raises 4..6 run
	// the primary alone (fast path again).
	if _, _, faults := eventStats(d, "E"); faults != 3 {
		t.Fatalf("event faults = %d, want 3", faults)
	}
	if n := d.HandlerCount("E"); n != 1 {
		t.Fatalf("HandlerCount = %d after quarantine, want 1 (primary)", n)
	}
	if primaryRan != 6 {
		t.Fatalf("primary ran %d times, want 6 (fallback preserved)", primaryRan)
	}
	if got := d.Raise("E", nil); got != "primary" {
		t.Fatalf("post-quarantine raise = %v", got)
	}
	q := d.Quarantined()
	if len(q) != 1 || q[0].Event != "E" || q[0].Owner.Name != "bad-ext" || q[0].Faults != 3 {
		t.Fatalf("quarantine log = %+v", q)
	}
	if !strings.Contains(q[0].Reason, "threshold") {
		t.Fatalf("reason = %q", q[0].Reason)
	}
	if len(notified) != 1 || notified[0].Owner.Name != "bad-ext" {
		t.Fatalf("notifications = %+v", notified)
	}
	if n := metrics.Value(d, `dispatch_quarantined{event="E"}`); n != 1 {
		t.Fatalf("dispatch_quarantined = %v", n)
	}
}

func TestQuarantineAtOverrunBudget(t *testing.T) {
	d, eng := newTestDispatcher()
	d.SetQuarantinePolicy(QuarantinePolicy{OverrunBudget: 2})
	_ = d.Define("E", DefineOptions{
		Primary:    func(_, _ any) any { return "ok" },
		Constraint: Constraint{TimeBound: 10 * sim.Microsecond},
	})
	_, err := d.Install("E", func(_, _ any) any {
		eng.Clock.Advance(time50us)
		return "slow"
	}, InstallOptions{Installer: domain.Identity{Name: "slow-ext"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		d.Raise("E", nil)
	}
	if n := d.HandlerCount("E"); n != 1 {
		t.Fatalf("HandlerCount = %d, want 1 after overrun quarantine", n)
	}
	q := d.Quarantined()
	if len(q) != 1 || q[0].Overruns != 2 || !strings.Contains(q[0].Reason, "overrun") {
		t.Fatalf("quarantine log = %+v", q)
	}
}

const time50us = 50 * sim.Microsecond

func TestQuarantineDisabledByDefault(t *testing.T) {
	d, _ := newTestDispatcher()
	_ = d.Define("E", DefineOptions{Primary: func(_, _ any) any { return nil }})
	_, _ = d.Install("E", func(_, _ any) any { panic("x") },
		InstallOptions{Installer: domain.Identity{Name: "ext"}})
	for i := 0; i < 50; i++ {
		d.Raise("E", nil)
	}
	// Zero policy: containment only, the handler stays installed.
	if n := d.HandlerCount("E"); n != 2 {
		t.Fatalf("HandlerCount = %d, want 2 (no quarantine without policy)", n)
	}
	if len(d.Quarantined()) != 0 {
		t.Fatal("quarantine log non-empty under zero policy")
	}
}

func TestPrimaryNeverQuarantined(t *testing.T) {
	d, _ := newTestDispatcher()
	d.SetQuarantinePolicy(QuarantinePolicy{FaultThreshold: 2})
	_ = d.Define("E", DefineOptions{Primary: func(_, _ any) any { panic("primary bug") }})
	for i := 0; i < 10; i++ {
		d.Raise("E", nil)
	}
	if n := d.HandlerCount("E"); n != 1 {
		t.Fatalf("primary was quarantined (HandlerCount=%d)", n)
	}
	if _, _, faults := eventStats(d, "E"); faults != 10 {
		t.Fatalf("faults = %d, want 10 (still contained and counted)", faults)
	}
}

// TestQuarantinePreservesKeyedPrimary is the PR-1 regression: quarantining
// a faulty handler installed alongside a keyed event must leave the keyed
// demultiplexer (the primary) linked, so every keyed handler keeps working
// and RemovePrimary still refuses with ErrKeyedPrimary.
func TestQuarantinePreservesKeyedPrimary(t *testing.T) {
	d, _ := newTestDispatcher()
	d.SetQuarantinePolicy(QuarantinePolicy{FaultThreshold: 2})
	ke, err := d.DefineKeyed("Keyed.E", func(arg any) (uint64, bool) {
		k, ok := arg.(uint64)
		return k, ok
	}, DefineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	keyedRan := 0
	if _, err := ke.InstallKeyed(7, func(_, _ any) any { keyedRan++; return nil }, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Install("Keyed.E", func(_, _ any) any { panic("bad") },
		InstallOptions{Installer: domain.Identity{Name: "bad-ext"}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		d.Raise("Keyed.E", uint64(7))
	}
	if len(d.Quarantined()) != 1 {
		t.Fatalf("quarantine log = %+v", d.Quarantined())
	}
	// The demux primary must survive and keep routing keyed raises.
	before := keyedRan
	d.Raise("Keyed.E", uint64(7))
	if keyedRan != before+1 {
		t.Fatal("keyed handler no longer reached after quarantine")
	}
	if err := d.RemovePrimary("Keyed.E", domain.Identity{Name: "anyone"}); err == nil {
		t.Fatal("RemovePrimary on keyed event succeeded after quarantine")
	}
}

// TestQuarantineConcurrentRaises crosses the threshold on the clock's
// owner while other goroutines churn the event's handler list and read the
// quarantine log: exactly one unlink, one record, one notification, and no
// churner's handler left behind.
func TestQuarantineConcurrentRaises(t *testing.T) {
	d, _ := newTestDispatcher()
	d.SetQuarantinePolicy(QuarantinePolicy{FaultThreshold: 10})
	var notifyMu sync.Mutex
	notifications := 0
	d.OnQuarantine(func(QuarantineRecord) {
		notifyMu.Lock()
		notifications++
		notifyMu.Unlock()
	})
	_ = d.Define("E", DefineOptions{Primary: func(_, _ any) any { return nil }})
	_, _ = d.Install("E", func(_, _ any) any { panic("x") },
		InstallOptions{Installer: domain.Identity{Name: "ext"}})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // churner: installs and removes a well-behaved handler
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ref, err := d.Install("E", func(_, _ any) any { return nil },
				InstallOptions{Installer: domain.Identity{Name: "churn"}})
			if err != nil {
				t.Error(err)
				return
			}
			if err := d.Remove(ref); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // reader: the log and the metrics surface
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = d.Quarantined()
			d.Metrics(func(string, float64) {})
		}
	}()
	for i := 0; i < 400; i++ {
		d.Raise("E", nil)
	}
	close(stop)
	wg.Wait()
	if n := d.HandlerCount("E"); n != 1 {
		t.Fatalf("HandlerCount = %d", n)
	}
	if got := len(d.Quarantined()); got != 1 {
		t.Fatalf("%d quarantine records, want 1", got)
	}
	notifyMu.Lock()
	defer notifyMu.Unlock()
	if notifications != 1 {
		t.Fatalf("%d notifications, want 1", notifications)
	}
}

func TestQuarantineEmitsTraceRecord(t *testing.T) {
	d, _ := newTestDispatcher()
	d.SetQuarantinePolicy(QuarantinePolicy{FaultThreshold: 1})
	tr := trace.New(64)
	d.SetTracer(tr)
	_ = d.Define("E", DefineOptions{Primary: func(_, _ any) any { return nil }})
	_, _ = d.Install("E", func(_, _ any) any { panic("x") },
		InstallOptions{Installer: domain.Identity{Name: "ext"}})
	d.Raise("E", nil)
	found := false
	for _, rec := range tr.Snapshot() {
		if rec.Event == "dispatch.quarantine" {
			found = true
		}
	}
	if !found {
		t.Fatal("no dispatch.quarantine trace record")
	}
}

func TestRemoveOwner(t *testing.T) {
	d, _ := newTestDispatcher()
	for _, ev := range []string{"A", "B", "C"} {
		_ = d.Define(ev, DefineOptions{Primary: func(_, _ any) any { return "p" }})
	}
	ext := domain.Identity{Name: "ext"}
	other := domain.Identity{Name: "other"}
	for _, ev := range []string{"A", "B"} {
		if _, err := d.Install(ev, func(_, _ any) any { return nil }, InstallOptions{Installer: ext}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Install("A", func(_, _ any) any { return nil }, InstallOptions{Installer: other}); err != nil {
		t.Fatal(err)
	}
	if got := d.RemoveOwner(ext); got != 2 {
		t.Fatalf("RemoveOwner removed %d, want 2", got)
	}
	if n := d.HandlerCount("A"); n != 2 { // primary + other's
		t.Fatalf("A has %d handlers, want 2", n)
	}
	if n := d.HandlerCount("B"); n != 1 {
		t.Fatalf("B has %d handlers, want 1", n)
	}
	// Idempotent: nothing left to remove.
	if got := d.RemoveOwner(ext); got != 0 {
		t.Fatalf("second RemoveOwner removed %d", got)
	}
}

// TestInjectedDispatchFaults drives the "dispatch.invoke" injection site:
// injected panics are contained, counted exactly once each, and feed the
// quarantine budget like organic faults.
func TestInjectedDispatchFaults(t *testing.T) {
	d, eng := newTestDispatcher()
	d.SetQuarantinePolicy(QuarantinePolicy{FaultThreshold: 4})
	inj := faultinject.New(1234, eng.Clock)
	inj.Arm(faultinject.Rule{Site: "dispatch.invoke", Kind: faultinject.KindPanic, MaxFires: 4})
	d.SetInjector(inj)
	_ = d.Define("E", DefineOptions{Primary: func(_, _ any) any { return "ok" }})
	_, _ = d.Install("E", func(_, _ any) any { return "ext" },
		InstallOptions{Installer: domain.Identity{Name: "ext"}})
	for i := 0; i < 20; i++ {
		d.Raise("E", nil)
	}
	total, last := d.ExtensionFaults()
	if total != inj.FiredAt("dispatch.invoke") {
		t.Fatalf("faults %d != injected %d (each counted exactly once)", total, inj.FiredAt("dispatch.invoke"))
	}
	if !strings.Contains(last, "faultinject") {
		t.Fatalf("last fault = %q, want injected description", last)
	}
	d.SetInjector(nil)
	if got := d.Raise("E", nil); got == nil {
		t.Fatal("raise failed after disarming injector")
	}
}

func TestQuarantinePolicyInEffectAndRecordString(t *testing.T) {
	d, _ := newTestDispatcher()
	d.SetQuarantinePolicy(QuarantinePolicy{FaultThreshold: 5, OverrunBudget: 9})
	if thr, budget := metrics.Value(d, "dispatch_quarantine_fault_threshold"),
		metrics.Value(d, "dispatch_quarantine_overrun_budget"); thr != 5 || budget != 9 {
		t.Errorf("policy read back = %v, %v", thr, budget)
	}
	r := QuarantineRecord{
		Event: "E", Owner: domain.Identity{Name: "bad"},
		Faults: 5, Overruns: 0, Reason: "fault threshold (5) exhausted",
	}
	s := r.String()
	for _, want := range []string{"E", "bad", "threshold"} {
		if !strings.Contains(s, want) {
			t.Errorf("record String() = %q missing %q", s, want)
		}
	}
}

func TestInjectorInstalled(t *testing.T) {
	d, eng := newTestDispatcher()
	if d.InjectorInstalled() != nil {
		t.Fatal("injector present before SetInjector")
	}
	// A nil injector is inert at every site (Fire on nil is a no-op).
	if f := d.InjectorInstalled().Fire("dispatch.invoke"); f.Fired() {
		t.Error("nil injector fired")
	}
	in := faultinject.New(1, eng.Clock)
	d.SetInjector(in)
	if d.InjectorInstalled() != in {
		t.Error("injector not readable back")
	}
	d.SetInjector(nil)
	if d.InjectorInstalled() != nil {
		t.Error("injector still present after SetInjector(nil)")
	}
}
