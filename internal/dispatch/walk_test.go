package dispatch

import (
	"slices"
	"testing"

	"spin/internal/domain"
)

// A raise walks the handler list it loaded: writers replace an event's list
// and never edit it in place, so what a handler removes, installs or
// quarantines changes the next raise, not the one that called it. A guard
// is the exception: AddGuard replaces its handler's guard slice, and a raise
// that has not reached the handler yet reads the new one.
func TestRaiseWalksTheListItLoaded(t *testing.T) {
	t.Run("remove-and-install-mid-raise", func(t *testing.T) {
		d, _ := newTestDispatcher()
		var ran []string
		record := func(name string) Handler {
			return func(_, _ any) any { ran = append(ran, name); return nil }
		}
		if err := d.Define("E", DefineOptions{Primary: record("P")}); err != nil {
			t.Fatal(err)
		}
		var refA, refB HandlerRef
		refA, _ = d.Install("E", func(_, _ any) any {
			ran = append(ran, "A")
			if err := d.Remove(refA); err != nil {
				t.Error(err)
			}
			if err := d.Remove(refB); err != nil {
				t.Error(err)
			}
			if _, err := d.Install("E", record("D"), InstallOptions{}); err != nil {
				t.Error(err)
			}
			return nil
		}, InstallOptions{})
		refB, _ = d.Install("E", record("B"), InstallOptions{})
		_, _ = d.Install("E", record("C"), InstallOptions{})

		d.Raise("E", nil)
		if want := []string{"P", "A", "B", "C"}; !slices.Equal(ran, want) {
			t.Errorf("raise that edits the list ran %v, want %v", ran, want)
		}
		ran = nil
		d.Raise("E", nil)
		if want := []string{"P", "C", "D"}; !slices.Equal(ran, want) {
			t.Errorf("next raise ran %v, want %v", ran, want)
		}
	})

	t.Run("quarantined-by-a-nested-raise", func(t *testing.T) {
		d, _ := newTestDispatcher()
		d.SetQuarantinePolicy(QuarantinePolicy{FaultThreshold: 1})
		if err := d.Define("E", DefineOptions{Primary: func(_, _ any) any { return nil }}); err != nil {
			t.Fatal(err)
		}
		_, _ = d.Install("E", func(arg, _ any) any {
			if arg == "outer" {
				d.Raise("E", "nested")
			}
			return nil
		}, InstallOptions{Installer: domain.Identity{Name: "nester"}})
		var faulterSaw []any
		_, _ = d.Install("E", func(arg, _ any) any {
			faulterSaw = append(faulterSaw, arg)
			if arg == "nested" {
				panic("faulter")
			}
			return nil
		}, InstallOptions{Installer: domain.Identity{Name: "faulter"}})

		d.Raise("E", "outer")
		d.Raise("E", "later")
		if want := []any{"nested", "outer"}; !slices.Equal(faulterSaw, want) {
			t.Errorf("quarantined handler saw %v, want %v", faulterSaw, want)
		}
		if q := d.Quarantined(); len(q) != 1 || q[0].Owner.Name != "faulter" {
			t.Errorf("quarantine log %v, want the faulter once", q)
		}
		if got := d.HandlerOwners("E"); !slices.Equal(got, []string{"(primary)", "nester"}) {
			t.Errorf("handlers after quarantine %v", got)
		}
	})

	t.Run("guard-added-mid-raise-applies", func(t *testing.T) {
		d, _ := newTestDispatcher()
		if err := d.Define("E", DefineOptions{Primary: func(_, _ any) any { return nil }}); err != nil {
			t.Fatal(err)
		}
		var refB HandlerRef
		bRuns := 0
		_, _ = d.Install("E", func(_, _ any) any {
			if err := d.AddGuard(refB, func(any) bool { return false }); err != nil {
				t.Error(err)
			}
			return nil
		}, InstallOptions{})
		refB, _ = d.Install("E", func(_, _ any) any { bRuns++; return nil }, InstallOptions{})

		d.Raise("E", nil)
		if bRuns != 0 {
			t.Errorf("a guard added before the raise reached its handler did not apply: ran %d times", bRuns)
		}
	})
}
