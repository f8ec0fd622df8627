package dispatch

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"spin/internal/domain"
	"spin/internal/metrics"
	"spin/internal/sim"
)

func newTestDispatcher() (*Dispatcher, *sim.Engine) {
	eng := sim.NewEngine()
	return New(eng, &sim.SPINProfile), eng
}

func TestDefineAndRaisePrimary(t *testing.T) {
	d, _ := newTestDispatcher()
	err := d.Define("Console.Open", DefineOptions{
		Primary: func(arg, _ any) any { return fmt.Sprintf("cap:%v", arg) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Raise("Console.Open", 3); got != "cap:3" {
		t.Errorf("Raise = %v", got)
	}
}

func TestRedefineFails(t *testing.T) {
	d, _ := newTestDispatcher()
	_ = d.Define("E", DefineOptions{})
	if err := d.Define("E", DefineOptions{}); err == nil {
		t.Error("redefinition accepted")
	}
}

func TestRaiseUndefinedReturnsNil(t *testing.T) {
	d, _ := newTestDispatcher()
	if got := d.Raise("Nothing", 1); got != nil {
		t.Errorf("Raise undefined = %v", got)
	}
}

func TestSingleHandlerFastPathCost(t *testing.T) {
	// With one unguarded synchronous handler, a raise costs exactly one
	// cross-domain procedure call — the paper's 0.13µs protected
	// in-kernel call.
	d, eng := newTestDispatcher()
	_ = d.Define("Null.Call", DefineOptions{
		Primary: func(_, _ any) any { return nil },
	})
	before := eng.Clock.Now()
	d.Raise("Null.Call", nil)
	cost := eng.Clock.Now().Sub(before)
	if cost != sim.SPINProfile.CrossDomainCall {
		t.Errorf("fast-path cost = %v, want %v", cost, sim.SPINProfile.CrossDomainCall)
	}
}

func TestGuardsFilterHandlers(t *testing.T) {
	d, _ := newTestDispatcher()
	_ = d.Define("IP.PacketArrived", DefineOptions{})
	var tcpGot, udpGot []int
	_, err := d.Install("IP.PacketArrived", func(arg, _ any) any {
		tcpGot = append(tcpGot, arg.(int))
		return nil
	}, InstallOptions{Guard: func(arg any) bool { return arg.(int) == 6 }})
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Install("IP.PacketArrived", func(arg, _ any) any {
		udpGot = append(udpGot, arg.(int))
		return nil
	}, InstallOptions{Guard: func(arg any) bool { return arg.(int) == 17 }})
	if err != nil {
		t.Fatal(err)
	}
	d.Raise("IP.PacketArrived", 6)
	d.Raise("IP.PacketArrived", 17)
	d.Raise("IP.PacketArrived", 1)
	if len(tcpGot) != 1 || tcpGot[0] != 6 {
		t.Errorf("tcp handler got %v", tcpGot)
	}
	if len(udpGot) != 1 || udpGot[0] != 17 {
		t.Errorf("udp handler got %v", udpGot)
	}
}

func TestAuthorizerDeniesInstall(t *testing.T) {
	d, _ := newTestDispatcher()
	_ = d.Define("Strand.Block", DefineOptions{
		Authorizer: func(installer domain.Identity) (Guard, error) {
			if !installer.Trusted {
				return nil, errors.New("untrusted")
			}
			return nil, nil
		},
	})
	_, err := d.Install("Strand.Block", func(_, _ any) any { return nil },
		InstallOptions{Installer: domain.Identity{Name: "rogue"}})
	if !errors.Is(err, ErrInstallDenied) {
		t.Errorf("err = %v, want ErrInstallDenied", err)
	}
	_, err = d.Install("Strand.Block", func(_, _ any) any { return nil },
		InstallOptions{Installer: domain.Identity{Name: "sched", Trusted: true}})
	if err != nil {
		t.Errorf("trusted install failed: %v", err)
	}
}

func TestAuthorizerImposedGuard(t *testing.T) {
	// The IP module's idiom: the authorizer constructs a guard comparing
	// the packet's protocol type to what the installer may service.
	d, _ := newTestDispatcher()
	_ = d.Define("IP.PacketArrived", DefineOptions{
		Authorizer: func(installer domain.Identity) (Guard, error) {
			// Suppose this installer is registered for proto 17 only.
			return func(arg any) bool { return arg.(int) == 17 }, nil
		},
	})
	var got []int
	_, err := d.Install("IP.PacketArrived", func(arg, _ any) any {
		got = append(got, arg.(int))
		return nil
	}, InstallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d.Raise("IP.PacketArrived", 6)
	d.Raise("IP.PacketArrived", 17)
	if len(got) != 1 || got[0] != 17 {
		t.Errorf("got %v, want [17]", got)
	}
}

func TestStackedGuards(t *testing.T) {
	d, _ := newTestDispatcher()
	_ = d.Define("E", DefineOptions{})
	calls := 0
	ref, _ := d.Install("E", func(_, _ any) any { calls++; return nil },
		InstallOptions{Guard: func(arg any) bool { return arg.(int) > 0 }})
	if err := d.AddGuard(ref, func(arg any) bool { return arg.(int) < 10 }); err != nil {
		t.Fatal(err)
	}
	d.Raise("E", 5)
	d.Raise("E", -1)
	d.Raise("E", 50)
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
}

func TestClosurePassedToHandler(t *testing.T) {
	d, _ := newTestDispatcher()
	_ = d.Define("E", DefineOptions{})
	var seen []string
	h := func(arg, closure any) any {
		seen = append(seen, closure.(string))
		return nil
	}
	// One handler body used in two contexts via closures.
	_, _ = d.Install("E", h, InstallOptions{Closure: "ctx-a"})
	_, _ = d.Install("E", h, InstallOptions{Closure: "ctx-b"})
	d.Raise("E", nil)
	if len(seen) != 2 || seen[0] != "ctx-a" || seen[1] != "ctx-b" {
		t.Errorf("seen = %v", seen)
	}
}

func TestRemoveHandler(t *testing.T) {
	d, _ := newTestDispatcher()
	_ = d.Define("E", DefineOptions{})
	calls := 0
	ref, _ := d.Install("E", func(_, _ any) any { calls++; return nil }, InstallOptions{})
	d.Raise("E", nil)
	if err := d.Remove(ref); err != nil {
		t.Fatal(err)
	}
	d.Raise("E", nil)
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
	if err := d.Remove(ref); err == nil {
		t.Error("double remove accepted")
	}
}

func TestRemovePrimary(t *testing.T) {
	d, _ := newTestDispatcher()
	_ = d.Define("Sched.Pick", DefineOptions{
		Primary: func(_, _ any) any { return "round-robin" },
	})
	// Replace the global scheduler: remove primary, install new.
	if err := d.RemovePrimary("Sched.Pick", domain.Identity{Name: "app-sched"}); err != nil {
		t.Fatal(err)
	}
	_, _ = d.Install("Sched.Pick", func(_, _ any) any { return "lottery" }, InstallOptions{})
	if got := d.Raise("Sched.Pick", nil); got != "lottery" {
		t.Errorf("after replacement Raise = %v", got)
	}
}

func TestRemovePrimaryAuthorized(t *testing.T) {
	d, _ := newTestDispatcher()
	_ = d.Define("E", DefineOptions{
		Primary: func(_, _ any) any { return 1 },
		Authorizer: func(id domain.Identity) (Guard, error) {
			if !id.Trusted {
				return nil, errors.New("no")
			}
			return nil, nil
		},
	})
	if err := d.RemovePrimary("E", domain.Identity{Name: "rogue"}); !errors.Is(err, ErrInstallDenied) {
		t.Errorf("err = %v, want ErrInstallDenied", err)
	}
}

func TestCombiner(t *testing.T) {
	d, _ := newTestDispatcher()
	sum := func(results []any) any {
		total := 0
		for _, r := range results {
			total += r.(int)
		}
		return total
	}
	_ = d.Define("E", DefineOptions{Combiner: sum})
	for i := 1; i <= 3; i++ {
		i := i
		_, _ = d.Install("E", func(_, _ any) any { return i }, InstallOptions{})
	}
	if got := d.Raise("E", nil); got != 6 {
		t.Errorf("combined = %v, want 6", got)
	}
}

func TestDefaultCombinerLastResult(t *testing.T) {
	d, _ := newTestDispatcher()
	_ = d.Define("E", DefineOptions{})
	_, _ = d.Install("E", func(_, _ any) any { return "first" }, InstallOptions{})
	_, _ = d.Install("E", func(_, _ any) any { return "last" }, InstallOptions{})
	if got := d.Raise("E", nil); got != "last" {
		t.Errorf("Raise = %v, want last", got)
	}
}

func TestAsyncHandlersRunOnEngine(t *testing.T) {
	d, eng := newTestDispatcher()
	_ = d.Define("E", DefineOptions{Constraint: Constraint{Async: true}})
	ran := false
	_, _ = d.Install("E", func(_, _ any) any { ran = true; return "ignored" }, InstallOptions{})
	res := d.Raise("E", nil)
	if res != nil {
		t.Errorf("async result leaked to raiser: %v", res)
	}
	if ran {
		t.Error("async handler ran synchronously")
	}
	eng.Run(0)
	if !ran {
		t.Error("async handler never ran")
	}
}

func TestTimeBoundAbortsSlowHandler(t *testing.T) {
	d, eng := newTestDispatcher()
	_ = d.Define("E", DefineOptions{Constraint: Constraint{TimeBound: 10 * sim.Microsecond}})
	_, _ = d.Install("E", func(_, _ any) any {
		eng.Clock.Advance(50 * sim.Microsecond) // hog the processor
		return "slow"
	}, InstallOptions{})
	_, _ = d.Install("E", func(_, _ any) any { return "fast" }, InstallOptions{})
	got := d.Raise("E", nil)
	if got != "fast" {
		t.Errorf("Raise = %v; slow handler's result should be discarded", got)
	}
	_, aborts, _ := eventStats(d, "E")
	if aborts != 1 {
		t.Errorf("aborts = %d, want 1", aborts)
	}
}

func TestDispatchCostLinearInGuards(t *testing.T) {
	// §5.5: dispatch overhead is linear in the number of guards and
	// handlers installed on the event.
	cost := func(nGuards int, guardsTrue bool) sim.Duration {
		d, eng := newTestDispatcher()
		_ = d.Define("E", DefineOptions{Primary: func(_, _ any) any { return nil }})
		for i := 0; i < nGuards; i++ {
			_, _ = d.Install("E", func(_, _ any) any { return nil },
				InstallOptions{Guard: func(any) bool { return guardsTrue }})
		}
		before := eng.Clock.Now()
		d.Raise("E", nil)
		return eng.Clock.Now().Sub(before)
	}
	c0 := cost(0, false)
	c50false := cost(50, false)
	c50true := cost(50, true)
	wantFalse := 50 * sim.SPINProfile.GuardEval
	gotFalse := c50false - c0 - sim.SPINProfile.HandlerInvoke + sim.SPINProfile.CrossDomainCall
	// c0 used the fast path (CrossDomainCall); c50false pays
	// HandlerInvoke for the primary plus 50 guard evals.
	if gotFalse != wantFalse {
		t.Errorf("50 false guards added %v, want %v", gotFalse, wantFalse)
	}
	perHandler := (c50true - c50false) / 50
	if perHandler != sim.SPINProfile.HandlerInvoke {
		t.Errorf("per-invoked-handler cost = %v, want %v", perHandler, sim.SPINProfile.HandlerInvoke)
	}
}

func TestStatsAndIntrospection(t *testing.T) {
	d, _ := newTestDispatcher()
	_ = d.Define("A", DefineOptions{Primary: func(_, _ any) any { return nil }})
	_ = d.Define("B", DefineOptions{})
	_, _ = d.Install("B", func(_, _ any) any { return nil },
		InstallOptions{Installer: domain.Identity{Name: "ext1"}})
	d.Raise("A", nil)
	d.Raise("A", nil)
	raises, _, _ := eventStats(d, "A")
	if raises != 2 {
		t.Errorf("raises = %d", raises)
	}
	if got := d.Events(); len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Errorf("Events = %v", got)
	}
	if got := d.HandlerCount("B"); got != 1 {
		t.Errorf("HandlerCount = %d", got)
	}
	owners := d.HandlerOwners("B")
	if len(owners) != 1 || owners[0] != "ext1" {
		t.Errorf("owners = %v", owners)
	}
	if d.HandlerOwners("A")[0] != "(primary)" {
		t.Errorf("primary owner tag wrong: %v", d.HandlerOwners("A"))
	}
}

func TestInstallOnUndefinedEvent(t *testing.T) {
	d, _ := newTestDispatcher()
	_, err := d.Install("Nope", func(_, _ any) any { return nil }, InstallOptions{})
	if !errors.Is(err, ErrNoSuchEvent) {
		t.Errorf("err = %v, want ErrNoSuchEvent", err)
	}
}

func TestNilHandlerRejected(t *testing.T) {
	d, _ := newTestDispatcher()
	_ = d.Define("E", DefineOptions{})
	if _, err := d.Install("E", nil, InstallOptions{}); err == nil {
		t.Error("nil handler accepted")
	}
}

// Property: for any subset of guards true, exactly the handlers whose guards
// pass run, in installation order.
func TestGuardSelectionProperty(t *testing.T) {
	if err := quick.Check(func(mask uint16) bool {
		d, _ := newTestDispatcher()
		_ = d.Define("E", DefineOptions{Constraint: Constraint{Ordered: true}})
		var ran []int
		for i := 0; i < 16; i++ {
			i := i
			pass := mask&(1<<i) != 0
			_, _ = d.Install("E", func(_, _ any) any {
				ran = append(ran, i)
				return nil
			}, InstallOptions{Guard: func(any) bool { return pass }})
		}
		d.Raise("E", nil)
		want := 0
		for i := 0; i < 16; i++ {
			if mask&(1<<i) != 0 {
				if want >= len(ran) || ran[want] != i {
					return false
				}
				want++
			}
		}
		return want == len(ran)
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPanickingHandlerContained(t *testing.T) {
	// §4.3: an extension's failure is isolated. A handler that raises a
	// runtime exception must not take down the raiser or suppress other
	// handlers.
	d, _ := newTestDispatcher()
	_ = d.Define("E", DefineOptions{})
	_, _ = d.Install("E", func(_, _ any) any {
		var p *int
		return *p // nil dereference: runtime exception in the extension
	}, InstallOptions{Installer: domain.Identity{Name: "buggy-ext"}})
	healthy := 0
	_, _ = d.Install("E", func(_, _ any) any { healthy++; return "ok" }, InstallOptions{})

	got := d.Raise("E", nil) // must not panic
	if got != "ok" {
		t.Errorf("Raise = %v; healthy handler's result lost", got)
	}
	if healthy != 1 {
		t.Errorf("healthy handler ran %d times", healthy)
	}
	faults, last := d.ExtensionFaults()
	if faults != 1 {
		t.Errorf("faults = %d", faults)
	}
	if !strings.Contains(last, "buggy-ext") || !strings.Contains(last, "E") {
		t.Errorf("fault description = %q", last)
	}
}

func TestPanickingAsyncHandlerContained(t *testing.T) {
	d, eng := newTestDispatcher()
	_ = d.Define("E", DefineOptions{Constraint: Constraint{Async: true}})
	_, _ = d.Install("E", func(_, _ any) any { panic("async boom") }, InstallOptions{})
	d.Raise("E", nil)
	eng.Run(0) // must not panic the engine
	faults, _ := d.ExtensionFaults()
	if faults != 1 {
		t.Errorf("faults = %d", faults)
	}
}

func TestPanickingPrimaryOnFastPath(t *testing.T) {
	// The direct-call fast path bypasses invokeBounded; a panicking
	// primary there would escape. Verify it is contained too.
	d, _ := newTestDispatcher()
	_ = d.Define("E", DefineOptions{Primary: func(_, _ any) any { panic("fast boom") }})
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panic escaped the dispatcher: %v", r)
		}
	}()
	res := d.Raise("E", nil)
	if res != nil {
		t.Errorf("result = %v", res)
	}
	faults, _ := d.ExtensionFaults()
	if faults != 1 {
		t.Errorf("faults = %d", faults)
	}
}

// eventStats reads an event's raise, abort and contained-fault counters
// from the metrics surface.
func eventStats(d *Dispatcher, event string) (raises, aborts, faults int64) {
	l := fmt.Sprintf("{event=%q}", event)
	return int64(metrics.Value(d, "dispatch_raises"+l)), int64(metrics.Value(d, "dispatch_aborts"+l)),
		int64(metrics.Value(d, "dispatch_faults"+l))
}
