package strand

import (
	"testing"

	"spin/internal/dispatch"
	"spin/internal/faultinject"
	"spin/internal/sim"
)

// Strand fault containment: a panic in a strand body (organic or injected
// at the "sched.strand" entry site) kills that strand only — counted,
// traced, and invisible to its siblings and the scheduler loop.

func TestStrandPanicContained(t *testing.T) {
	sched, _ := newSched(t)
	survivors := 0
	sched.Start(sched.NewStrand("doomed", 1, func(*Strand) { panic("extension bug") }))
	sched.Start(sched.NewStrand("fine-1", 1, func(*Strand) { survivors++ }))
	sched.Start(sched.NewStrand("fine-2", 1, func(*Strand) { survivors++ }))
	sched.Run()
	if n := sched.StrandFaults(); n != 1 {
		t.Errorf("StrandFaults = %d, want 1", n)
	}
	if survivors != 2 {
		t.Errorf("%d survivors ran, want 2", survivors)
	}
}

func TestStrandEntryInjectionSite(t *testing.T) {
	eng := sim.NewEngine()
	disp := dispatch.New(eng, &sim.SPINProfile)
	sched, err := NewMultiScheduler(&sim.SPINProfile, disp, eng)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(11, eng.Clock)
	disp.SetInjector(inj)
	// KindError at the entry site suppresses the body without a panic:
	// the strand exits cleanly and nothing is counted as a fault.
	inj.Arm(faultinject.Rule{Site: "sched.strand", Kind: faultinject.KindError, MaxFires: 1})
	ran := 0
	for i := 0; i < 3; i++ {
		sched.Start(sched.NewStrand("s", 1, func(*Strand) { ran++ }))
	}
	sched.Run()
	if got := inj.FiredAt("sched.strand"); got != 1 {
		t.Fatalf("site fired %d, want 1", got)
	}
	if ran != 2 {
		t.Errorf("%d bodies ran, want 2 (one suppressed)", ran)
	}
	if n := sched.StrandFaults(); n != 0 {
		t.Errorf("StrandFaults = %d, want 0 (suppression is not a panic)", n)
	}
}
