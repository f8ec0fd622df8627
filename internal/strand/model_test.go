package strand

import (
	"fmt"
	"sync/atomic"
	"testing"

	"spin/internal/sim"
)

// Model-based scheduler test: random interleavings of NewStrand / Block /
// Unblock / Yield / Sleep — with work stealing active on the multi-CPU
// configurations — checked against a reference model:
//
//   - no strand is lost (every body completes its full script once the
//     chaos controller releases its blocks),
//   - no strand is duplicated (a global in-body flag proves at most one
//     body runs at a time; per-strand iteration counts prove each script
//     step executes exactly once),
//   - no strand runs while blocked (a strand the controller Blocked must
//     not re-enter its body until the controller Unblocks it).
//
// CI runs this under -race, so the plain counters and run queues are also
// checked for host-level races across the CPU token's hand-off.

func TestSchedulerModelTorture(t *testing.T) {
	for _, cpus := range []int{1, 2, 4} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("cpus=%d/seed=%d", cpus, seed), func(t *testing.T) {
				runSchedulerModel(t, cpus, seed)
			})
		}
	}
}

func runSchedulerModel(t *testing.T, cpus int, seed uint64) {
	const (
		workers = 12
		iters   = 40
	)
	sched, _ := newMultiSched(t, cpus)
	sched.SetStealSeed(seed)

	var inBody atomic.Int64
	counts := make([]int, workers)
	// expectBlocked is the reference model's view of controller-imposed
	// blocks. It is only touched from strand bodies, which the token
	// handoff serializes.
	expectBlocked := make(map[int]bool)

	strands := make([]*Strand, workers)
	for i := 0; i < workers; i++ {
		id := i
		rng := sim.NewRand(seed*1000 + uint64(id) + 1)
		prio := rng.Intn(3)
		strands[i] = sched.NewStrand(fmt.Sprintf("w%d", id), prio, func(s *Strand) {
			for k := 0; k < iters; k++ {
				if !inBody.CompareAndSwap(0, 1) {
					t.Errorf("w%d iter %d: another strand body is running concurrently", id, k)
				}
				if s.State() != Running {
					t.Errorf("w%d iter %d: body running with state %v", id, k, s.State())
				}
				if expectBlocked[id] {
					t.Errorf("w%d iter %d: ran while the model says it is blocked", id, k)
				}
				counts[id]++
				switch rng.Intn(5) {
				case 0, 1:
					d := sim.Duration(1+rng.Intn(5)) * sim.Microsecond
					s.Exec(d)
					inBody.Store(0)
				case 2, 3:
					inBody.Store(0)
					s.Yield()
				case 4:
					d := sim.Duration(1+rng.Intn(10)) * sim.Microsecond
					inBody.Store(0)
					s.Sleep(d)
				}
			}
		})
	}

	// The chaos controller outranks every worker: it randomly Blocks
	// runnable victims (recording them in the model) and Unblocks earlier
	// victims, interleaving itself with Yield and Sleep so its decisions
	// land at scattered points of the schedule. Victims are only taken
	// while Runnable, which in this scheduler implies no pending wakeup
	// timer — so "blocked by the controller" is exact, not approximate.
	ctl := sched.NewStrandOn("chaos-ctl", 10, 0, func(s *Strand) {
		rng := sim.NewRand(seed * 7777)
		for k := 0; k < 3*iters; k++ {
			if !inBody.CompareAndSwap(0, 1) {
				t.Errorf("ctl iter %d: another strand body is running concurrently", k)
			}
			victim := rng.Intn(workers)
			switch {
			case !expectBlocked[victim] && strands[victim].State() == Runnable && rng.Intn(2) == 0:
				expectBlocked[victim] = true
				inBody.Store(0)
				sched.Block(strands[victim])
			case expectBlocked[victim]:
				delete(expectBlocked, victim)
				inBody.Store(0)
				sched.Unblock(strands[victim])
			default:
				inBody.Store(0)
			}
			if rng.Intn(3) == 0 {
				s.Sleep(sim.Duration(1+rng.Intn(5)) * sim.Microsecond)
			} else {
				s.Yield()
			}
		}
		// Release every surviving block so no worker is lost.
		for id := range expectBlocked {
			delete(expectBlocked, id)
			sched.Unblock(strands[id])
		}
	})

	for _, s := range strands {
		sched.Start(s)
	}
	sched.Start(ctl)
	sched.Run()

	for i, s := range strands {
		if got := s.State(); got != Dead {
			t.Errorf("w%d finished in state %v, want dead (lost strand)", i, got)
		}
		if counts[i] != iters {
			t.Errorf("w%d executed %d iterations, want exactly %d (lost or duplicated work)",
				i, counts[i], iters)
		}
	}
	for _, st := range cpuStats(sched) {
		if st.Ready != 0 {
			t.Errorf("cpu%d still queues %d strands after the model run", st.ID, st.Ready)
		}
	}
	if cpus > 1 && sched.Steals() == 0 {
		t.Logf("note: no steals at cpus=%d seed=%d", cpus, seed)
	}
}

// TestSwitchesRaceFree reads the scheduler's counters while Run is
// mutating them, the way any reader must: through the owner, here a strand
// body, which holds the CPU token, so the token's hand-off orders the read
// after the loop's writes. Run under -race, this fails loudly if a counter
// is written off the scheduler loop and the strand holding the token.
func TestSwitchesRaceFree(t *testing.T) {
	sched, _ := newMultiSched(t, 2)
	for i := 0; i < 16; i++ {
		s := sched.NewStrand("w", 1, func(s *Strand) {
			for k := 0; k < 20; k++ {
				s.Exec(sim.Microsecond)
				s.Yield()
			}
		})
		sched.Start(s)
	}
	reads := 0
	reader := sched.NewStrand("reader", 1, func(s *Strand) {
		for k := 0; k < 20; k++ {
			total := sched.Switches() + sched.Steals() + sched.Migrations()
			for _, st := range cpuStats(sched) {
				total += st.Switches + int64(st.Ready)
			}
			if total < 0 {
				t.Error("counters went negative")
			}
			reads++
			s.Exec(sim.Microsecond)
			s.Yield()
		}
	})
	sched.Start(reader)
	sched.Run()
	if reads != 20 || sched.Switches() == 0 {
		t.Fatalf("%d reads, %d switches; want 20 and some", reads, sched.Switches())
	}
}
