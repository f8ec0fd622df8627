package strand

import (
	"runtime"
	"testing"

	"spin/internal/dispatch"
	"spin/internal/domain"
	"spin/internal/sim"
)

func newSched(t *testing.T) (*Scheduler, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	disp := dispatch.New(eng, &sim.SPINProfile)
	sched, err := NewScheduler(eng, &sim.SPINProfile, disp)
	if err != nil {
		t.Fatal(err)
	}
	return sched, eng
}

func TestStrandRunsBody(t *testing.T) {
	sched, _ := newSched(t)
	ran := false
	s := sched.NewStrand("worker", 0, func(*Strand) { ran = true })
	sched.Start(s)
	sched.Run()
	if !ran {
		t.Fatal("body never ran")
	}
	if s.State() != Dead {
		t.Errorf("state = %v, want dead", s.State())
	}
}

func TestPriorityOrdering(t *testing.T) {
	sched, _ := newSched(t)
	var order []string
	for _, spec := range []struct {
		name string
		prio int
	}{{"low", 1}, {"high", 9}, {"mid", 5}} {
		spec := spec
		s := sched.NewStrand(spec.name, spec.prio, func(*Strand) {
			order = append(order, spec.name)
		})
		sched.Start(s)
	}
	sched.Run()
	if len(order) != 3 || order[0] != "high" || order[1] != "mid" || order[2] != "low" {
		t.Errorf("order = %v", order)
	}
}

func TestRoundRobinWithinPriority(t *testing.T) {
	sched, _ := newSched(t)
	var order []string
	mk := func(name string) {
		s := sched.NewStrand(name, 0, func(self *Strand) {
			for i := 0; i < 2; i++ {
				order = append(order, name)
				self.Yield()
			}
		})
		sched.Start(s)
	}
	mk("a")
	mk("b")
	sched.Run()
	want := []string{"a", "b", "a", "b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestBlockUnblock(t *testing.T) {
	sched, _ := newSched(t)
	var log []string
	worker := sched.NewStrand("worker", 0, func(self *Strand) {
		log = append(log, "worker:start")
		self.BlockSelf()
		log = append(log, "worker:resumed")
	})
	waker := sched.NewStrand("waker", 0, func(*Strand) {
		log = append(log, "waker")
		sched.Unblock(worker)
	})
	sched.Start(worker)
	sched.Start(waker)
	sched.Run()
	want := []string{"worker:start", "waker", "worker:resumed"}
	if len(log) != 3 {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v", log)
		}
	}
}

func TestCheckpointResumeEventsRaised(t *testing.T) {
	sched, eng := newSched(t)
	disp := dispatch.New(eng, &sim.SPINProfile)
	_ = disp // separate dispatcher unused; observe via the scheduler's
	var resumes, checkpoints int
	_, err := schedDisp(sched).Install(EvResume, func(arg, _ any) any {
		resumes++
		return nil
	}, dispatch.InstallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = schedDisp(sched).Install(EvCheckpoint, func(arg, _ any) any {
		checkpoints++
		return nil
	}, dispatch.InstallOptions{})
	a := sched.NewStrand("a", 0, func(self *Strand) { self.Yield() })
	b := sched.NewStrand("b", 0, func(self *Strand) { self.Yield() })
	sched.Start(a)
	sched.Start(b)
	sched.Run()
	if resumes < 3 {
		t.Errorf("resumes = %d, want >= 3 (a,b interleaved)", resumes)
	}
	if checkpoints < 2 {
		t.Errorf("checkpoints = %d, want >= 2", checkpoints)
	}
}

func schedDisp(s *Scheduler) *dispatch.Dispatcher { return s.disp }

func TestForkJoin(t *testing.T) {
	sched, _ := newSched(t)
	pkg := NewThreadPkg(sched)
	result := 0
	main := sched.NewStrand("main", 0, func(*Strand) {
		child := pkg.Fork("child", func() { result = 42 })
		pkg.Join(child)
		result *= 2
	})
	sched.Start(main)
	sched.Run()
	if result != 84 {
		t.Errorf("result = %d: join did not order operations", result)
	}
}

func TestJoinFinishedThread(t *testing.T) {
	sched, _ := newSched(t)
	pkg := NewThreadPkg(sched)
	ok := false
	main := sched.NewStrand("main", 0, func(self *Strand) {
		child := pkg.Fork("child", func() {})
		self.Yield() // let child finish first
		pkg.Join(child)
		ok = true
	})
	sched.Start(main)
	sched.Run()
	if !ok {
		t.Error("join on finished thread hung")
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	sched, _ := newSched(t)
	pkg := NewThreadPkg(sched)
	mu := pkg.NewMutex()
	inside := 0
	maxInside := 0
	var threads []*Thread
	main := sched.NewStrand("main", 0, func(self *Strand) {
		for i := 0; i < 4; i++ {
			threads = append(threads, pkg.Fork("t", func() {
				mu.Lock()
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				// Yield while holding the lock: others must wait.
				sched.Current().Yield()
				inside--
				mu.Unlock()
			}))
		}
		for _, th := range threads {
			pkg.Join(th)
		}
	})
	sched.Start(main)
	sched.Run()
	if maxInside != 1 {
		t.Errorf("max threads in critical section = %d", maxInside)
	}
}

func TestConditionSignalWakesOne(t *testing.T) {
	sched, _ := newSched(t)
	pkg := NewThreadPkg(sched)
	mu := pkg.NewMutex()
	cond := pkg.NewCondition()
	woken := 0
	main := sched.NewStrand("main", 0, func(self *Strand) {
		var ws []*Thread
		for i := 0; i < 3; i++ {
			ws = append(ws, pkg.Fork("w", func() {
				mu.Lock()
				cond.Wait(mu)
				woken++
				mu.Unlock()
			}))
		}
		self.Yield() // let them all block
		cond.Signal()
		self.Yield()
		if woken != 1 {
			t.Errorf("after Signal woken = %d", woken)
		}
		cond.Broadcast()
		for _, w := range ws {
			pkg.Join(w)
		}
	})
	sched.Start(main)
	sched.Run()
	if woken != 3 {
		t.Errorf("woken = %d, want 3", woken)
	}
}

func TestPingPongVirtualCost(t *testing.T) {
	// Table 3 shape: a kernel-thread ping-pong round should cost on the
	// order of the paper's 17µs for SPIN — well under OSF/1 user level's
	// hundreds.
	sched, eng := newSched(t)
	pkg := NewThreadPkg(sched)
	const rounds = 64
	pingSem := pkg.NewSemaphore(0)
	pongSem := pkg.NewSemaphore(0)
	var start, end sim.Time
	main := sched.NewStrand("main", 0, func(self *Strand) {
		ping := pkg.Fork("ping", func() {
			for i := 0; i < rounds; i++ {
				pongSem.V()
				pingSem.P()
			}
		})
		pong := pkg.Fork("pong", func() {
			for i := 0; i < rounds; i++ {
				pongSem.P()
				pingSem.V()
			}
		})
		start = eng.Now()
		pkg.Join(ping)
		pkg.Join(pong)
		end = eng.Now()
	})
	sched.Start(main)
	sched.Run()
	perRound := end.Sub(start) / rounds
	if perRound < 5*sim.Microsecond || perRound > 60*sim.Microsecond {
		t.Errorf("ping-pong round = %v, want O(17µs)", perRound)
	}
}

func TestCThreadsIntegratedVsLayered(t *testing.T) {
	// The layered implementation must be slower than the integrated one
	// (Table 3's comparison), both driven by the same workload.
	run := func(mk func(*Scheduler) interface {
		Fork(string, func()) *CThread
		Join(*CThread)
	}) sim.Duration {
		sched, eng := newSched(t)
		impl := mk(sched)
		var elapsed sim.Duration
		main := sched.NewStrand("main", 0, func(*Strand) {
			start := eng.Now()
			ct := impl.Fork("child", func() {})
			impl.Join(ct)
			elapsed = eng.Now().Sub(start)
		})
		sched.Start(main)
		sched.Run()
		return elapsed
	}
	integrated := run(func(s *Scheduler) interface {
		Fork(string, func()) *CThread
		Join(*CThread)
	} {
		return NewCThreadsIntegrated(s)
	})
	layered := run(func(s *Scheduler) interface {
		Fork(string, func()) *CThread
		Join(*CThread)
	} {
		return NewCThreadsLayered(s)
	})
	if layered <= integrated {
		t.Errorf("layered (%v) should cost more than integrated (%v)", layered, integrated)
	}
}

func TestOSFThreadsSleepWakeup(t *testing.T) {
	sched, _ := newSched(t)
	osf := NewOSFThreads(sched)
	ev := osf.NewEvent()
	var log []string
	driver := osf.KernelThread("driver", func() {
		log = append(log, "sleep")
		osf.AssertWait(ev)
		osf.ThreadBlock(ev)
		log = append(log, "awake")
	})
	_ = driver
	intr := osf.KernelThread("intr", func() {
		log = append(log, "wakeup")
		osf.ThreadWakeup(ev)
	})
	_ = intr
	sched.Run()
	if len(log) != 3 || log[0] != "sleep" || log[1] != "wakeup" || log[2] != "awake" {
		t.Errorf("log = %v", log)
	}
}

func TestSubSchedulerRunsTasks(t *testing.T) {
	sched, _ := newSched(t)
	sub, err := NewSubScheduler(sched, domain.Identity{Name: "app-sched"})
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, name := range []string{"t1", "t2", "t3"} {
		name := name
		ss := sub.NewSubStrand(name, func(*SubStrand) {
			order = append(order, name)
		})
		sub.Start(ss)
	}
	sched.Run()
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i, want := range []string{"t1", "t2", "t3"} {
		if order[i] != want {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestSubSchedulerCustomPolicy(t *testing.T) {
	// Replace the policy: LIFO. New scheduling policies integrate without
	// touching the global scheduler.
	sched, _ := newSched(t)
	sub, _ := NewSubScheduler(sched, domain.Identity{Name: "lifo"})
	sub.Policy = func(q []*SubStrand) int { return len(q) - 1 }
	var order []string
	for _, name := range []string{"t1", "t2", "t3"} {
		name := name
		sub.Start(sub.NewSubStrand(name, func(*SubStrand) {
			order = append(order, name)
		}))
	}
	sched.Run()
	if len(order) != 3 || order[0] != "t3" {
		t.Errorf("LIFO order = %v", order)
	}
}

func TestSubSchedulerEventRouting(t *testing.T) {
	// Unblock raised on a substrand must be routed to the subscheduler
	// (guarded handler), not mishandled by the global primary.
	sched, _ := newSched(t)
	sub, _ := NewSubScheduler(sched, domain.Identity{Name: "app"})
	ran := false
	ss := sub.NewSubStrand("late", func(*SubStrand) { ran = true })
	// Raise through the dispatcher, as an interrupt handler would.
	schedDisp(sched).Raise(EvUnblock, ss)
	sched.Run()
	if !ran {
		t.Error("substrand never ran after event-routed unblock")
	}
}

func TestGuardStrandOwner(t *testing.T) {
	sched, _ := newSched(t)
	mine := sched.NewStrand("mine", 0, func(*Strand) {})
	other := sched.NewStrand("other", 0, func(*Strand) {})
	g := GuardStrandOwner(mine)
	if !g(mine) || g(other) {
		t.Error("ownership guard wrong")
	}
	if g("not a strand") {
		t.Error("guard passed non-strand")
	}
}

func TestSchedulerIdleWithNoStrands(t *testing.T) {
	sched, _ := newSched(t)
	sched.Run() // must return immediately
	if sched.Switches() != 0 {
		t.Error("switches on empty run")
	}
}

func TestLotteryPolicyProportionalShare(t *testing.T) {
	// A weight-3 strand should win roughly three times as often as a
	// weight-1 strand. Substrands re-enqueue themselves to keep racing.
	sched, _ := newSched(t)
	sub, err := NewSubScheduler(sched, domain.Identity{Name: "lottery"})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRand(12345)
	sub.Policy = LotteryPolicy(rng)
	const rounds = 4000
	wins := map[string]int{}
	total := 0
	var heavy, light *SubStrand
	var body func(self *SubStrand)
	body = func(self *SubStrand) {
		if total >= rounds {
			return
		}
		wins[self.Name]++
		total++
		// Re-enter the race: a fresh substrand with the same name and
		// weight (substrands are run-to-completion tasks).
		next := sub.NewSubStrand(self.Name, body)
		next.Weight = self.Weight
		sub.Start(next)
	}
	heavy = sub.NewSubStrand("heavy", body)
	heavy.Weight = 3
	light = sub.NewSubStrand("light", body)
	light.Weight = 1
	sub.Start(heavy)
	sub.Start(light)
	sched.Run()
	if total < rounds {
		t.Fatalf("only %d rounds ran", total)
	}
	ratio := float64(wins["heavy"]) / float64(wins["light"])
	if ratio < 2.4 || ratio > 3.8 {
		t.Errorf("share ratio = %.2f (heavy=%d light=%d), want ≈3", ratio, wins["heavy"], wins["light"])
	}
}

func TestLotteryPolicyDefaultWeight(t *testing.T) {
	rng := sim.NewRand(1)
	policy := LotteryPolicy(rng)
	q := []*SubStrand{{Name: "a"}, {Name: "b"}}
	counts := map[int]int{}
	for i := 0; i < 1000; i++ {
		counts[policy(q)]++
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Errorf("zero-weight strands starved: %v", counts)
	}
}

// TestRogueThreadPackageIsolated reproduces §4.3's trust argument: an
// application-specific thread package that ignores the events affecting its
// strands only harms the application using it; other strands proceed.
func TestRogueThreadPackageIsolated(t *testing.T) {
	sched, _ := newSched(t)
	// The rogue sub-scheduler drops Unblock events for its strands (its
	// handler does nothing), so its own tasks never run.
	rogue, err := NewSubScheduler(sched, domain.Identity{Name: "rogue"})
	if err != nil {
		t.Fatal(err)
	}
	rogue.Detach() // remove the correct handlers...
	_, err = schedDisp(sched).Install(EvUnblock, func(arg, _ any) any {
		return nil // ...and ignore the event instead of enqueueing
	}, dispatch.InstallOptions{
		Installer: domain.Identity{Name: "rogue"},
		Guard: func(arg any) bool {
			_, ok := arg.(*SubStrand)
			return ok
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rogueRan := false
	ss := rogue.NewSubStrand("victim", func(*SubStrand) { rogueRan = true })
	rogue.Start(ss)

	// A healthy kernel thread on the global scheduler is unaffected.
	healthyRan := false
	pkg := NewThreadPkg(sched)
	pkg.Fork("healthy", func() { healthyRan = true })
	sched.Run()
	if rogueRan {
		t.Error("rogue package's strand ran despite dropped events")
	}
	if !healthyRan {
		t.Error("healthy thread was harmed by the rogue package")
	}
}

func TestExternalBlockOfRunnableStrand(t *testing.T) {
	// A driver can block a strand that is queued but not running (e.g.
	// cancelling work); it must leave the run queue.
	sched, _ := newSched(t)
	ran := false
	s := sched.NewStrand("victim", 0, func(*Strand) { ran = true })
	sched.Start(s)
	if s.State() != Runnable {
		t.Fatalf("state = %v", s.State())
	}
	sched.Block(s)
	if s.State() != Blocked {
		t.Fatalf("state after Block = %v", s.State())
	}
	sched.Run()
	if ran {
		t.Error("blocked strand ran")
	}
	// Unblocking later lets it run.
	sched.Unblock(s)
	sched.Run()
	if !ran {
		t.Error("unblocked strand never ran")
	}
}

func TestStrandAccessors(t *testing.T) {
	sched, _ := newSched(t)
	s := sched.NewStrand("named", 7, func(*Strand) {})
	if s.Name() != "named" || s.Priority() != 7 {
		t.Errorf("accessors: %q %d", s.Name(), s.Priority())
	}
	for st, want := range map[State]string{
		Runnable: "runnable", Running: "running", Blocked: "blocked", Dead: "dead",
	} {
		if st.String() != want {
			t.Errorf("State(%d) = %q", int(st), st.String())
		}
	}
}

func TestCThreadsSyncOpsBothImpls(t *testing.T) {
	for _, mk := range []func(*Scheduler) cthreadsAPI{
		func(s *Scheduler) cthreadsAPI { return NewCThreadsIntegrated(s) },
		func(s *Scheduler) cthreadsAPI { return NewCThreadsLayered(s) },
	} {
		sched, _ := newSched(t)
		impl := mk(sched)
		var order []string
		main := sched.NewStrand("main", 0, func(*Strand) {
			pair := impl.NewCondPair()
			waiter := impl.Fork("waiter", func() {
				impl.Wait(pair)
				order = append(order, "woke")
			})
			worker := impl.Fork("worker", func() {
				order = append(order, "signal")
				impl.Signal(pair)
			})
			impl.Join(waiter)
			impl.Join(worker)

			// SignalAndWait against a pre-signalled pair returns.
			mine, peer := impl.NewCondPair(), impl.NewCondPair()
			helper := impl.Fork("helper", func() {
				impl.Wait(peer) // consume our signal
				impl.Signal(mine)
			})
			impl.SignalAndWait(mine, peer)
			impl.Join(helper)
			order = append(order, "done")
		})
		sched.Start(main)
		sched.Run()
		if len(order) != 3 || order[2] != "done" {
			t.Errorf("order = %v", order)
		}
	}
}

type cthreadsAPI interface {
	Fork(string, func()) *CThread
	Join(*CThread)
	NewCondPair() *CondPair
	Wait(*CondPair)
	Signal(*CondPair)
	SignalAndWait(mine, peer *CondPair)
}

func TestOSFThreadsPkgAccessor(t *testing.T) {
	sched, _ := newSched(t)
	osf := NewOSFThreads(sched)
	if osf.Pkg() == nil {
		t.Fatal("Pkg nil")
	}
	ev := osf.NewEvent()
	osf.AssertWait(ev) // no-op by design
	done := false
	osf.Pkg().Fork("t", func() {
		osf.ThreadWakeup(ev)
		osf.ThreadBlock(ev) // consume own wakeup: returns immediately
		done = true
	})
	sched.Run()
	if !done {
		t.Error("thread hung")
	}
}

// A Yield between two runnable strands on one CPU allocates nothing: the
// run queue is edited in place and the CPU token passes on channels. The
// fixed cost of a run (strands, goroutines) is cancelled by subtracting a
// short run's mallocs from a long one's.
func TestYieldAllocFree(t *testing.T) {
	mallocs := func(yields int) uint64 {
		sched, _ := newSched(t)
		for _, name := range []string{"a", "b"} {
			sched.Start(sched.NewStrand(name, 0, func(s *Strand) {
				for i := 0; i < yields; i++ {
					s.Yield()
				}
			}))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sched.Run()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	const short, long = 1000, 11000
	mallocs(short) // warm up
	extra := float64(mallocs(long)) - float64(mallocs(short))
	// A few mallocs of runtime noise either way round to 0.00 a Yield.
	if perYield := extra / (2 * (long - short)); perYield >= 0.005 {
		t.Errorf("a Yield allocates %.2f objects, want 0", perYield)
	}
}
