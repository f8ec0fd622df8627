package strand

import (
	"errors"
	"testing"

	"spin/internal/bcode"
	"spin/internal/sim"
)

// vetoVictim builds a policy vetoing steals from the given victim CPU.
func vetoVictim(victim int32) *bcode.Program {
	return bcode.New(
		bcode.LdCtx(1, StealCtxVictim),
		bcode.JeqImm(1, victim, 2),
		bcode.MovImm(0, 0), // other victims: allow
		bcode.Exit(),
		bcode.MovImm(0, 1), // this victim: veto
		bcode.Exit(),
	)
}

// runPolicyBatch runs the stealing workload with a policy installed and
// returns per-CPU steal counts plus the policy handle.
func runPolicyBatch(t *testing.T, prog *bcode.Program) (map[int]int64, *StealPolicy, *Scheduler) {
	t.Helper()
	sched, _ := newMultiSched(t, 4)
	var pol *StealPolicy
	if prog != nil {
		var err error
		pol, err = sched.SetStealPolicy("test", prog)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		s := sched.NewStrandOn("w", 1, 0, func(s *Strand) {
			for k := 0; k < 8; k++ {
				s.Exec(10 * sim.Microsecond)
				s.Yield()
			}
		})
		sched.Start(s)
	}
	sched.Run()
	steals := map[int]int64{}
	for _, st := range sched.CPUStats() {
		steals[st.ID] = st.Steals
	}
	return steals, pol, sched
}

func TestStealPolicyVetoHonored(t *testing.T) {
	// All work starts on CPU 0; a policy vetoing victim 0 therefore kills
	// every productive steal (nothing ever accumulates elsewhere to
	// re-steal), while the other CPUs still evaluate candidates.
	steals, pol, sched := runPolicyBatch(t, vetoVictim(0))
	total := int64(0)
	for _, n := range steals {
		total += n
	}
	if total != 0 {
		t.Errorf("steals = %d, want 0 (victim 0 is the only source of work)", total)
	}
	evals, vetoes := pol.Stats()
	if evals == 0 {
		t.Fatal("policy never consulted")
	}
	if vetoes == 0 || vetoes > evals {
		t.Errorf("vetoes = %d of %d evals", vetoes, evals)
	}
	if sched.StealPolicyInstalled() != pol {
		t.Error("installed policy not returned")
	}

	// With the policy cleared, the same workload steals again.
	sched.ClearStealPolicy()
	if sched.StealPolicyInstalled() != nil {
		t.Error("policy survives ClearStealPolicy")
	}
	steals2, _, _ := runPolicyBatch(t, nil)
	total2 := int64(0)
	for _, n := range steals2 {
		total2 += n
	}
	if total2 == 0 {
		t.Error("no steals without a policy — workload no longer exercises stealing")
	}
}

func TestStealPolicyAllowAllMatchesBaseline(t *testing.T) {
	// A verdict-0 policy must not change scheduling decisions, only charge
	// guard evaluations. Determinism means identical steal counts.
	allow := bcode.New(bcode.MovImm(0, 0), bcode.Exit())
	with, pol, _ := runPolicyBatch(t, allow)
	without, _, _ := runPolicyBatch(t, nil)
	for id, n := range without {
		if with[id] != n {
			t.Errorf("cpu %d: steals with allow-all policy = %d, baseline %d", id, with[id], n)
		}
	}
	evals, vetoes := pol.Stats()
	if evals == 0 || vetoes != 0 {
		t.Errorf("allow-all stats = (%d evals, %d vetoes)", evals, vetoes)
	}
}

func TestStealPolicyRejectsUnverifiable(t *testing.T) {
	sched, _ := newMultiSched(t, 2)
	// Reading a context word beyond the steal ABI must fail installation.
	bad := bcode.New(bcode.LdCtx(0, StealCtxWords), bcode.Exit())
	if _, err := sched.SetStealPolicy("bad", bad); !errors.Is(err, bcode.ErrVerifyCtxOOB) {
		t.Fatalf("err = %v, want ErrVerifyCtxOOB", err)
	}
	if sched.StealPolicyInstalled() != nil {
		t.Error("rejected policy installed anyway")
	}
}

// The steal-policy load point evaluates its attachment without allocating:
// the context comes from the shared pool and nothing escapes per probe.
func TestStealPolicyEvalZeroAllocs(t *testing.T) {
	sched, _ := newMultiSched(t, 2)
	pol, err := sched.SetStealPolicy("veto-1", vetoVictim(1))
	if err != nil {
		t.Fatal(err)
	}
	thief, victim := sched.cpus[0], sched.cpus[1]
	if allocs := testing.AllocsPerRun(1000, func() {
		if !thief.stealVetoed(victim) {
			t.Fatal("veto not honoured")
		}
	}); allocs != 0 {
		t.Errorf("stealVetoed allocates %.1f per probe, want 0", allocs)
	}
	if evals, vetoes := pol.Stats(); evals != vetoes || evals < 1000 {
		t.Errorf("stats = (%d evals, %d vetoes)", evals, vetoes)
	}
}
