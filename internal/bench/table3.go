package bench

import (
	"spin/internal/dispatch"
	"spin/internal/sim"
	"spin/internal/strand"
)

// RunTable3 reproduces Table 3: thread management overhead in microseconds.
// Fork-Join creates, schedules and terminates a thread, synchronizing the
// termination with another thread; Ping-Pong synchronizes two threads back
// and forth. Kernel rows use each system's native kernel threads (the
// strand scheduler under the system's cost profile); user rows use the
// layered C-Threads/P-Threads libraries, and SPIN additionally measures the
// integrated C-Threads kernel extension.
func RunTable3() (*Table, error) {
	const rounds = 32

	spinKFJ, spinKPP, err := kernelThreadCosts(&sim.SPINProfile, rounds)
	if err != nil {
		return nil, err
	}
	osfKFJ, osfKPP, err := kernelThreadCosts(&sim.OSF1Profile, rounds)
	if err != nil {
		return nil, err
	}
	machKFJ, machKPP, err := kernelThreadCosts(&sim.MachProfile, rounds)
	if err != nil {
		return nil, err
	}

	osfUFJ, osfUPP, err := userThreadCosts(&sim.OSF1Profile, rounds, false)
	if err != nil {
		return nil, err
	}
	machUFJ, machUPP, err := userThreadCosts(&sim.MachProfile, rounds, false)
	if err != nil {
		return nil, err
	}
	layFJ, layPP, err := userThreadCosts(&sim.SPINProfile, rounds, false)
	if err != nil {
		return nil, err
	}
	intFJ, intPP, err := userThreadCosts(&sim.SPINProfile, rounds, true)
	if err != nil {
		return nil, err
	}

	return &Table{
		ID:      "table3",
		Title:   "Thread management overhead",
		Columns: []string{"OSF/1 kern", "OSF/1 user", "Mach kern", "Mach user", "SPIN kern", "SPIN layered", "SPIN integrated"},
		Unit:    "µs",
		Rows: []Row{
			{"Fork-Join",
				[]float64{198, 1230, 101, 338, 22, 262, 111},
				[]float64{micros(osfKFJ), micros(osfUFJ), micros(machKFJ), micros(machUFJ), micros(spinKFJ), micros(layFJ), micros(intFJ)}},
			{"Ping-Pong",
				[]float64{21, 264, 71, 115, 17, 159, 85},
				[]float64{micros(osfKPP), micros(osfUPP), micros(machKPP), micros(machUPP), micros(spinKPP), micros(layPP), micros(intPP)}},
		},
		Notes: []string{
			"kernel rows: native primitives (thread sleep/wakeup on OSF/Mach, locks+conditions on SPIN)",
			"user rows: P-Threads on OSF/1, C-Threads on Mach and SPIN (layered vs integrated)",
		},
	}, nil
}

func newBenchScheduler(profile *sim.Profile) (*strand.Scheduler, *sim.Engine, error) {
	eng := sim.NewEngine()
	disp := dispatch.New(eng, profile)
	sched, err := strand.NewMultiScheduler(profile, disp, eng)
	return sched, eng, err
}

// kernelThreadCosts measures Fork-Join and Ping-Pong with the trusted
// in-kernel thread package under the given profile.
func kernelThreadCosts(profile *sim.Profile, rounds int) (fj, pp sim.Duration, err error) {
	sched, eng, err := newBenchScheduler(profile)
	if err != nil {
		return 0, 0, err
	}
	pkg := strand.NewThreadPkg(sched)
	var fjTotal, ppTotal sim.Duration
	main := sched.NewStrand("main", 0, func(self *strand.Strand) {
		// Fork-Join.
		start := eng.Now()
		for i := 0; i < rounds; i++ {
			t := pkg.Fork("child", func() {})
			pkg.Join(t)
		}
		fjTotal = eng.Now().Sub(start)

		// Ping-Pong with the native primitives: the first thread
		// signals the second and blocks (thread wakeup/sleep on
		// OSF/Mach; Unblock/BlockSelf on SPIN strands).
		var pingT, pongT *strand.Thread
		pongParked := false
		ping := pkg.Fork("ping", func() {
			cur := sched.Current()
			for !pongParked {
				cur.Yield() // let pong park first
			}
			for i := 0; i < rounds; i++ {
				sched.Unblock(pongT.Strand())
				cur.BlockSelf()
			}
		})
		pingT = ping
		pong := pkg.Fork("pong", func() {
			cur := sched.Current()
			pongParked = true
			cur.BlockSelf()
			for i := 0; i < rounds; i++ {
				sched.Unblock(pingT.Strand())
				if i < rounds-1 {
					cur.BlockSelf()
				}
			}
		})
		pongT = pong
		start = eng.Now()
		pkg.Join(ping)
		pkg.Join(pong)
		ppTotal = eng.Now().Sub(start)
	})
	sched.Start(main)
	sched.Run()
	return fjTotal / sim.Duration(rounds), ppTotal / sim.Duration(rounds), nil
}

// cthreadsImpl abstracts the layered and integrated C-Threads variants.
type cthreadsImpl interface {
	Fork(string, func()) *strand.CThread
	Join(*strand.CThread)
	NewCondPair() *strand.CondPair
	SignalAndWait(mine, peer *strand.CondPair)
	Wait(*strand.CondPair)
	Signal(*strand.CondPair)
}

// userThreadCosts measures the user-level rows: layered libraries
// (P-Threads/C-Threads over kernel threads) or SPIN's integrated C-Threads
// extension.
func userThreadCosts(profile *sim.Profile, rounds int, integrated bool) (fj, pp sim.Duration, err error) {
	sched, eng, err := newBenchScheduler(profile)
	if err != nil {
		return 0, 0, err
	}
	var impl cthreadsImpl
	if integrated {
		impl = strand.NewCThreadsIntegrated(sched)
	} else {
		impl = strand.NewCThreadsLayered(sched)
	}
	pkg := strand.NewThreadPkg(sched)
	var fjTotal, ppTotal sim.Duration
	main := sched.NewStrand("main", 0, func(self *strand.Strand) {
		start := eng.Now()
		for i := 0; i < rounds; i++ {
			t := impl.Fork("child", func() {})
			impl.Join(t)
		}
		fjTotal = eng.Now().Sub(start)

		pingPair := impl.NewCondPair()
		pongPair := impl.NewCondPair()
		ping := impl.Fork("ping", func() {
			for i := 0; i < rounds; i++ {
				impl.SignalAndWait(pingPair, pongPair)
			}
		})
		pong := impl.Fork("pong", func() {
			for i := 0; i < rounds; i++ {
				impl.Wait(pongPair)
				impl.Signal(pingPair)
			}
		})
		start = eng.Now()
		impl.Join(ping)
		impl.Join(pong)
		ppTotal = eng.Now().Sub(start)
	})
	sched.Start(main)
	sched.Run()
	_ = pkg
	return fjTotal / sim.Duration(rounds), ppTotal / sim.Duration(rounds), nil
}
