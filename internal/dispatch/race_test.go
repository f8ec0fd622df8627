package dispatch

import (
	"errors"
	"fmt"
	"sync"
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

// Torture: concurrent Define/Install/AddGuard/Remove/Raise on a shared
// dispatcher must be race-free (run under -race; the pre-snapshot dispatcher
// fails here on the AddGuard-vs-Raise guard-slice race) and must never
// deliver a torn handler list to a raise.
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
		raisers   = 4
		mutators  = 4
		iters     = 8000
		raiseIter = 60000
	)
	var wg sync.WaitGroup
	for r := 0; r < raisers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < raiseIter; i++ {
				d.Raise(names[(r+i)%events], i)
			}
		}()
	}
	for m := 0; m < mutators; m++ {
		m := m
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev := names[m%events]
			for i := 0; i < iters; i++ {
				ref, err := d.Install(ev, func(_, _ any) any { return m }, InstallOptions{
					Guard:     func(arg any) bool { return arg.(int)%2 == 0 },
					Installer: domain.Identity{Name: fmt.Sprintf("ext%d", m)},
				})
				if err != nil {
					t.Error(err)
					return
				}
				if err := d.AddGuard(ref, func(arg any) bool { return arg.(int) >= 0 }); err != nil {
					t.Error(err)
					return
				}
				if err := d.Remove(ref); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// A definer churning fresh events exercises the COW event table.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			name := fmt.Sprintf("Fresh%d", i)
			if err := d.Define(name, DefineOptions{Primary: func(_, _ any) any { return nil }}); err != nil {
				t.Error(err)
				return
			}
			d.Raise(name, i)
		}
	}()
	wg.Wait()
	for _, ev := range names {
		raises, _, _ := eventStats(d, ev)
		if raises == 0 {
			t.Errorf("event %s saw no raises", ev)
		}
		// All mutator handlers were removed; only the primary remains.
		if got := d.HandlerCount(ev); got != 1 {
			t.Errorf("event %s handler count = %d, want 1", ev, got)
		}
	}
}

// Torture: concurrent keyed Install/Remove/Raise against one KeyedEvent.
func TestConcurrentKeyedInstallRemoveRaise(t *testing.T) {
	d, _ := newTestDispatcher()
	ke, err := d.DefineKeyed("K", keyOfPort, DefineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				d.Raise("K", &keyedArg{port: uint64(r%8 + 1)})
			}
		}()
	}
	for m := 0; m < 4; m++ {
		m := m
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := uint64(m%8 + 1)
			for i := 0; i < 5000; i++ {
				ref, err := ke.InstallKeyed(key, func(_, _ any) any { return m }, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if err := ke.RemoveKeyed(ref); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	raises, indexed := ke.Stats()
	if raises != 80000 || indexed != 80000 {
		t.Errorf("stats = %d raises, %d indexed; want 80000, 80000", raises, indexed)
	}
	if ke.Keys() != 0 {
		t.Errorf("keys = %d, want 0 after all removals", ke.Keys())
	}
}

// Counter exactness: atomics must not drop counts under parallel raises —
// Stats raises/aborts and ExtensionFaults totals are exact.
func TestCountersExactUnderParallelRaises(t *testing.T) {
	d, eng := newTestDispatcher()
	_ = d.Define("Counted", DefineOptions{Primary: func(_, _ any) any { return nil }})
	_ = d.Define("Slow", DefineOptions{Constraint: Constraint{TimeBound: sim.Microsecond}})
	_, _ = d.Install("Slow", func(_, _ any) any {
		eng.Clock.Advance(10 * sim.Microsecond)
		return nil
	}, InstallOptions{})
	_ = d.Define("Faulty", DefineOptions{Primary: func(_, _ any) any { panic("boom") }})

	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				d.Raise("Counted", i)
				d.Raise("Slow", i)
				d.Raise("Faulty", i)
			}
		}()
	}
	wg.Wait()
	const total = goroutines * perG
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
