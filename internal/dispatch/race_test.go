package dispatch

import (
	"errors"
	"fmt"
	"testing"

	"spin/internal/domain"
	"spin/internal/sim"
)

// Regression (fast-path time bound): a lone unguarded handler takes the
// direct-call fast path, which must still enforce Constraint.TimeBound — the
// containment contract holds on every dispatch path, not just the guard walk.
func TestTimeBoundEnforcedOnFastPath(t *testing.T) {
	d, eng := newTestDispatcher()
	_ = d.Define("E", DefineOptions{Constraint: Constraint{TimeBound: 10 * sim.Microsecond}})
	_, _ = d.Install("E", func(_, _ any) any {
		eng.Clock.Advance(50 * sim.Microsecond) // hog the processor
		return "slow"
	}, InstallOptions{})
	if d.HandlerCount("E") != 1 {
		t.Fatalf("want exactly one handler for the fast path, have %d", d.HandlerCount("E"))
	}
	if got := d.Raise("E", nil); got != nil {
		t.Errorf("Raise = %v; over-bound fast-path result must be discarded", got)
	}
	raises, aborts, _ := eventStats(d, "E")
	if raises != 1 || aborts != 1 {
		t.Errorf("stats = %d raises, %d aborts; want 1, 1", raises, aborts)
	}
	// A fast handler under the same bound is unaffected.
	_ = d.Define("F", DefineOptions{
		Constraint: Constraint{TimeBound: 10 * sim.Microsecond},
		Primary:    func(_, _ any) any { return "fast" },
	})
	if got := d.Raise("F", nil); got != "fast" {
		t.Errorf("Raise = %v, want fast", got)
	}
	if _, aborts, _ := eventStats(d, "F"); aborts != 0 {
		t.Errorf("fast handler aborted: %d", aborts)
	}
}

// Regression (keyed primary): the primary of a DefineKeyed event is the key
// demultiplexer; RemovePrimary must refuse rather than silently orphan the
// index.
func TestRemovePrimaryRefusedOnKeyedEvent(t *testing.T) {
	d, _ := newTestDispatcher()
	ke, err := d.DefineKeyed("UDP.Demux", keyOfPort, DefineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	_, _ = ke.InstallKeyed(7, func(_, _ any) any { calls++; return nil }, nil)
	if err := d.RemovePrimary("UDP.Demux", domain.Identity{Name: "rogue"}); !errors.Is(err, ErrKeyedPrimary) {
		t.Fatalf("RemovePrimary on keyed event: err = %v, want ErrKeyedPrimary", err)
	}
	// The index still routes.
	d.Raise("UDP.Demux", &keyedArg{port: 7})
	if calls != 1 {
		t.Errorf("keyed handler calls = %d, want 1 (index destroyed?)", calls)
	}
	// A plain event is still removable.
	_ = d.Define("Plain", DefineOptions{Primary: func(_, _ any) any { return nil }})
	if err := d.RemovePrimary("Plain", domain.Identity{}); err != nil {
		t.Errorf("RemovePrimary on plain event: %v", err)
	}
}

// Interleaving: Define, Install, AddGuard and Remove run on the machine's
// owner between raises, and handlers remove themselves in the middle of the
// raise that called them — the one-owner contract (see the package comment)
// in place of the old writers on other goroutines. A raise walks the
// snapshot it loaded, so no raise sees a torn handler list, and every count
// is exact.
func TestConcurrentInstallAddGuardRemoveRaise(t *testing.T) {
	d, _ := newTestDispatcher()
	const events = 4
	names := make([]string, events)
	for i := range names {
		names[i] = fmt.Sprintf("E%d", i)
		if err := d.Define(names[i], DefineOptions{
			Primary: func(_, _ any) any { return "primary" },
		}); err != nil {
			t.Fatal(err)
		}
	}
	const (
		mutators  = 4
		iters     = 8000
		raiseIter = 240000
		cycle     = raiseIter / iters // raises per mutator cycle
	)
	// Each mutator steps through install, add a guard, remove: one step
	// per raise, for the first 3*mutators raises of every cycle.
	refs := make([]HandlerRef, mutators)
	mutate := func(m, phase int) {
		var err error
		switch phase {
		case 0:
			refs[m], err = d.Install(names[m%events], func(_, _ any) any { return m }, InstallOptions{
				Guard:     func(arg any) bool { return arg.(int)%2 == 0 },
				Installer: domain.Identity{Name: fmt.Sprintf("ext%d", m)},
			})
		case 1:
			err = d.AddGuard(refs[m], func(arg any) bool { return arg.(int) >= 0 })
		case 2:
			err = d.Remove(refs[m])
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// A handler that removes itself while the raise that called it walks
	// the list: once per cycle, on the event about to be raised.
	var selfRefs []HandlerRef
	selfRuns := 0
	installSelfRemover := func(ev string) {
		slot := len(selfRefs)
		ref, err := d.Install(ev, func(_, _ any) any {
			selfRuns++
			if err := d.Remove(selfRefs[slot]); err != nil {
				t.Error(err)
			}
			return nil
		}, InstallOptions{Installer: domain.Identity{Name: "self"}})
		if err != nil {
			t.Fatal(err)
		}
		selfRefs = append(selfRefs, ref)
	}
	for i := 0; i < raiseIter; i++ {
		phase := i % cycle
		if phase < 3*mutators {
			mutate(phase%mutators, phase/mutators)
		}
		if phase == cycle-1 {
			installSelfRemover(names[i%events])
		}
		d.Raise(names[i%events], i)
		// A definer churning fresh events; the owner resolves and raises
		// each as it appears.
		if phase == 0 {
			name := fmt.Sprintf("Fresh%d", i/cycle)
			if err := d.Define(name, DefineOptions{Primary: func(_, _ any) any { return nil }}); err != nil {
				t.Fatal(err)
			}
			st := d.Event(name)
			d.RaiseEvent(st, i)
			if st.raises != 1 {
				t.Fatalf("fresh event %s saw %d raises, want 1", name, st.raises)
			}
		}
	}
	for _, ev := range names {
		raises, _, _ := eventStats(d, ev)
		if raises != raiseIter/events {
			t.Errorf("event %s saw %d raises, want %d", ev, raises, raiseIter/events)
		}
		// All mutator and self-removing handlers are gone; only the
		// primary remains.
		if got := d.HandlerCount(ev); got != 1 {
			t.Errorf("event %s handler count = %d, want 1", ev, got)
		}
	}
	if selfRuns != len(selfRefs) || selfRuns != iters {
		t.Errorf("self-removing handlers ran %d times, %d installed; want %d each", selfRuns, len(selfRefs), iters)
	}
}

// Interleaving: keyed Install and Remove on the owner between raises of one
// KeyedEvent, and a keyed handler that removes itself while the
// demultiplexer walks its key's list.
func TestConcurrentKeyedInstallRemoveRaise(t *testing.T) {
	d, _ := newTestDispatcher()
	ke, err := d.DefineKeyed("K", keyOfPort, DefineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const (
		mutators = 4
		iters    = 5000
		raises   = 80000
		cycle    = raises / iters
	)
	refs := make([]KeyedRef, mutators)
	selfRuns, selfInstalled := 0, 0
	for i := 0; i < raises; i++ {
		phase := i % cycle
		if phase < 2*mutators {
			m := phase % mutators
			key := uint64(m%8 + 1)
			if phase < mutators {
				ref, err := ke.InstallKeyed(key, func(_, _ any) any { return m }, nil)
				if err != nil {
					t.Fatal(err)
				}
				refs[m] = ref
			} else if err := ke.RemoveKeyed(refs[m]); err != nil {
				t.Fatal(err)
			}
		}
		port := uint64(i%4 + 1)
		if phase == cycle-1 {
			var ref KeyedRef
			ref, err = ke.InstallKeyed(port, func(_, _ any) any {
				selfRuns++
				if err := ke.RemoveKeyed(ref); err != nil {
					t.Error(err)
				}
				return nil
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			selfInstalled++
		}
		d.Raise("K", &keyedArg{port: port})
	}
	raised, indexed := ke.Stats()
	if raised != raises || indexed != raises {
		t.Errorf("stats = %d raises, %d indexed; want %d, %d", raised, indexed, raises, raises)
	}
	if ke.Keys() != 0 {
		t.Errorf("keys = %d, want 0 after all removals", ke.Keys())
	}
	if selfRuns != selfInstalled || selfRuns != iters {
		t.Errorf("self-removing keyed handlers ran %d times, %d installed; want %d each", selfRuns, selfInstalled, iters)
	}
}

// Counter exactness: the owner's raises, aborts and contained faults are
// counted exactly, and Metrics, read by the owner between raises, renders
// every count as of that moment.
func TestCountersExactUnderConcurrentMetricsRead(t *testing.T) {
	d, eng := newTestDispatcher()
	_ = d.Define("Counted", DefineOptions{Primary: func(_, _ any) any { return nil }})
	_ = d.Define("Slow", DefineOptions{Constraint: Constraint{TimeBound: sim.Microsecond}})
	_, _ = d.Install("Slow", func(_, _ any) any {
		eng.Clock.Advance(10 * sim.Microsecond)
		return nil
	}, InstallOptions{})
	_ = d.Define("Faulty", DefineOptions{Primary: func(_, _ any) any { panic("boom") }})

	const total = 4000
	for i := 0; i < total; i++ {
		if i%97 == 0 {
			if raises, aborts, _ := eventStats(d, "Slow"); raises != int64(i) || aborts != int64(i) {
				t.Fatalf("after %d rounds Slow stats = %d, %d", i, raises, aborts)
			}
			if faults, _ := d.ExtensionFaults(); faults != int64(i) {
				t.Fatalf("after %d rounds faults = %d", i, faults)
			}
		}
		d.Raise("Counted", i)
		d.Raise("Slow", i)
		d.Raise("Faulty", i)
	}
	if raises, aborts, _ := eventStats(d, "Counted"); raises != total || aborts != 0 {
		t.Errorf("Counted stats = %d, %d; want %d, 0", raises, aborts, total)
	}
	if raises, aborts, _ := eventStats(d, "Slow"); raises != total || aborts != total {
		t.Errorf("Slow stats = %d, %d; want %d, %d", raises, aborts, total, total)
	}
	faults, last := d.ExtensionFaults()
	if faults != total {
		t.Errorf("faults = %d, want %d", faults, total)
	}
	if last == "" {
		t.Error("lastFault empty after faults")
	}
}
