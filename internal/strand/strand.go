// Package strand implements SPIN's extensible thread management (paper
// §4.2, Figure 4). A *strand* reflects processor context but, unlike a
// thread, carries no requisite kernel state beyond a name. Schedulers
// multiplex the processor among strands; thread packages define execution
// models on top of strands. The two communicate through four events —
// Strand.Block, Strand.Unblock, Strand.Checkpoint, Strand.Resume — so that
// application-specific schedulers and thread packages can be installed as
// kernel extensions.
//
// The global scheduler implements the paper's round-robin, preemptive,
// priority policy across one or more virtual CPUs (one per sim.Engine).
// Strand bodies run on real goroutines, but exactly one runs at a time,
// handed a token by the scheduler loop — execution is deterministic and
// all time is virtual. With several CPUs the driver steps the eligible CPU
// with the earliest clock, so per-CPU virtual time overlaps while the
// interleaving stays reproducible.
package strand

import (
	"fmt"

	"spin/internal/dispatch"
	"spin/internal/faultinject"
	"spin/internal/sim"
	"spin/internal/trace"
)

// Event names for scheduler/thread-package communication.
const (
	EvBlock      = "Strand.Block"
	EvUnblock    = "Strand.Unblock"
	EvCheckpoint = "Strand.Checkpoint"
	EvResume     = "Strand.Resume"
)

// State is a strand's scheduling state.
type State int

// Strand states.
const (
	Runnable State = iota
	Running
	Blocked
	Dead
)

func (s State) String() string {
	switch s {
	case Runnable:
		return "runnable"
	case Running:
		return "running"
	case Blocked:
		return "blocked"
	case Dead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Strand is one processor context (Strand.T). The *Strand pointer is the
// capability for it: only holders may block/unblock it.
type Strand struct {
	name  string
	prio  int
	state State
	sched *Scheduler
	// cpu is the strand's home CPU: where Unblock and Yield queue it. It
	// changes when a thief steals the strand.
	cpu *CPU
	// readyAt is the acting CPU's virtual time when the strand last became
	// runnable; the dispatching CPU advances at least this far before
	// running it, so cross-CPU wakeups cannot run in the waker's past.
	readyAt sim.Time

	body func(*Strand)
	// token is signalled to hand the strand a virtual CPU.
	token chan struct{}
	// yield is signalled back to the scheduler loop when the strand
	// gives up the CPU (block, exit, or preemption point).
	started bool
	exited  bool
}

// Name returns the strand's name — per the paper, the only requisite state.
func (s *Strand) Name() string { return s.name }

// State returns the current scheduling state.
func (s *Strand) State() State { return s.state }

// Priority returns the strand's scheduling priority (higher runs first).
func (s *Strand) Priority() int { return s.prio }

// CPU returns the id of the strand's current home CPU.
func (s *Strand) CPU() int { return s.cpu.id }

// Scheduler is the global scheduler: round-robin within priority,
// preemptive, priority-ordered, across one or more virtual CPUs. It
// charges context-switch costs from the profile on the CPU doing the work.
//
// Its state and each CPU's (run queues and their sizes, the switch, steal
// and migration counters, strandFaults, stealPolicy) are plain fields, with
// no lock or atomic. Every access runs on the scheduler loop, Run and what
// it steps, or in a strand body, which runs only while it holds the CPU
// token. The token passes on unbuffered channels, out on Strand.token and
// back on yieldCh, and each hand-off orders what one side did before it
// with what the other does after. A reader on another goroutine goes
// through a strand body, or waits until Run has returned.
type Scheduler struct {
	profile *sim.Profile
	disp    *dispatch.Dispatcher
	cpus    []*CPU
	// The four strand events, resolved once: a switch raises by handle.
	evBlock, evUnblock, evCheckpoint, evResume *dispatch.Event

	// engine/clock are CPU 0's — the boot CPU. Charges made outside the
	// scheduler loop (strand creation from init code, for example) land
	// here, which is also the only CPU when the machine has one.
	engine *sim.Engine
	clock  *sim.Clock

	// active is the CPU the driver is currently stepping; strand bodies
	// observe it through the token-channel handoff, never concurrently.
	active *CPU
	// yieldCh carries control back from the running strand.
	yieldCh chan struct{}
	// rr spreads default strand placement round-robin over the CPUs.
	rr int
	// observer, if set, sees every switch/steal/migrate in order.
	observer func(SchedEvent)
	// stealPolicy, if set, is the verified bytecode program consulted per
	// steal candidate (see bcode_policy.go).
	stealPolicy *StealPolicy
	// strandFaults counts strand-body panics contained by the entry guard:
	// a faulting strand dies alone, the scheduler loop keeps running.
	strandFaults int64
}

// defaultStealSeed seeds the per-CPU victim-selection PRNGs; override with
// SetStealSeed for seeded experiments.
const defaultStealSeed = 0x5350494e31313935 // "SPIN1995"

// NewMultiScheduler creates a scheduler multiplexing one virtual CPU per
// engine and defines the four strand events. The default implementations
// (primaries) are the trusted scheduler's own: Block marks the strand
// blocked, Unblock requeues it on its home CPU. Installation of additional
// handlers is allowed (that is how application-specific schedulers
// integrate); the trusted package's authorizer admits any installer but
// the guards it hands out are built by the installers themselves over
// strand capabilities they hold.
func NewMultiScheduler(profile *sim.Profile, disp *dispatch.Dispatcher, engines ...*sim.Engine) (*Scheduler, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("strand: scheduler needs at least one engine")
	}
	sched := &Scheduler{
		profile: profile,
		disp:    disp,
		engine:  engines[0],
		clock:   engines[0].Clock,
		yieldCh: make(chan struct{}),
	}
	for i, eng := range engines {
		sched.cpus = append(sched.cpus, newCPU(i, sched, eng, defaultStealSeed))
	}
	type def struct {
		name    string
		primary dispatch.Handler
	}
	// The primaries act only on native strands; Block/Unblock raised on
	// strands owned by application-specific schedulers are routed by the
	// dispatcher to those schedulers' guarded handlers instead.
	defs := []def{
		{EvBlock, func(arg, _ any) any {
			if s, ok := arg.(*Strand); ok {
				sched.doBlock(s)
			}
			return nil
		}},
		{EvUnblock, func(arg, _ any) any {
			if s, ok := arg.(*Strand); ok {
				sched.doUnblock(s)
			}
			return nil
		}},
		{EvCheckpoint, func(arg, _ any) any { return nil }},
		{EvResume, func(arg, _ any) any { return nil }},
	}
	for _, d := range defs {
		if err := disp.Define(d.name, dispatch.DefineOptions{Primary: d.primary}); err != nil {
			return nil, err
		}
	}
	sched.evBlock, sched.evUnblock = disp.Event(EvBlock), disp.Event(EvUnblock)
	sched.evCheckpoint, sched.evResume = disp.Event(EvCheckpoint), disp.Event(EvResume)
	return sched, nil
}

// SetStealSeed reseeds the per-CPU victim-selection PRNGs. Same seed, same
// workload → identical steal sequence; call before Run.
func (sched *Scheduler) SetStealSeed(seed uint64) {
	for _, c := range sched.cpus {
		c.reseed(seed)
	}
}

// SetObserver registers a callback invoked from the scheduler driver for
// every switch, steal, and migration, in execution order. Call before Run;
// pass nil to remove.
func (sched *Scheduler) SetObserver(fn func(SchedEvent)) { sched.observer = fn }

func (sched *Scheduler) observe(ev SchedEvent) {
	if sched.observer != nil {
		sched.observer(ev)
	}
}

// actingClock is the clock that pays for scheduler operations: the CPU the
// driver is stepping (which covers strand bodies, via the token handoff),
// or the boot CPU outside the scheduler loop.
func (sched *Scheduler) actingClock() *sim.Clock {
	if c := sched.active; c != nil {
		return c.clock
	}
	return sched.clock
}

// NewStrand creates a strand that will execute body when scheduled,
// placing it round-robin across the CPUs. It is born Blocked; Unblock
// makes it runnable.
func (sched *Scheduler) NewStrand(name string, prio int, body func(*Strand)) *Strand {
	id := sched.rr % len(sched.cpus)
	sched.rr++
	return sched.NewStrandOn(name, prio, id, body)
}

// NewStrandOn creates a strand homed on a specific CPU. It panics if the
// CPU does not exist.
func (sched *Scheduler) NewStrandOn(name string, prio, cpu int, body func(*Strand)) *Strand {
	if cpu < 0 || cpu >= len(sched.cpus) {
		panic(fmt.Sprintf("strand: no CPU %d (machine has %d)", cpu, len(sched.cpus)))
	}
	sched.actingClock().Advance(sched.profile.ThreadCreate)
	return &Strand{
		name:  name,
		prio:  prio,
		state: Blocked,
		sched: sched,
		cpu:   sched.cpus[cpu],
		body:  body,
		token: make(chan struct{}),
	}
}

// Block signals the scheduler that s is not runnable (paper: a disk driver
// blocks the current strand during an I/O operation). It raises the
// Strand.Block event; the default implementation dequeues the strand.
func (sched *Scheduler) Block(s *Strand) {
	sched.actingClock().Advance(sched.profile.SchedOp)
	sched.disp.RaiseEvent(sched.evBlock, s)
}

// Unblock signals that s is runnable (e.g. an interrupt handler completing
// an I/O).
func (sched *Scheduler) Unblock(s *Strand) {
	sched.actingClock().Advance(sched.profile.SchedOp)
	sched.disp.RaiseEvent(sched.evUnblock, s)
}

func (sched *Scheduler) doBlock(s *Strand) {
	switch s.state {
	case Running:
		s.state = Blocked
	case Runnable:
		s.state = Blocked
		s.cpu.ready.remove(s)
	}
}

func (sched *Scheduler) doUnblock(s *Strand) {
	if s.state == Blocked {
		s.state = Runnable
		s.readyAt = sched.actingClock().Now()
		s.cpu.ready.push(s)
	}
}

// eligible reports whether the driver may step c now: it has ready work or
// due events, another CPU has queued work it could steal, or it can safely
// idle forward to its own next event.
func (sched *Scheduler) eligible(c *CPU) bool {
	if c.ready.size > 0 {
		return true
	}
	at, hasEvent := c.engine.NextEventTime()
	if hasEvent && at <= c.clock.Now() {
		return true
	}
	for _, d := range sched.cpus {
		if d != c && d.ready.size > 0 {
			return true
		}
	}
	return hasEvent && sched.safeIdleAdvance(c, at)
}

// safeIdleAdvance reports whether c may jump its clock to `at` (its next
// pending event) without risking causality: no other CPU with queued work
// sits at an earlier clock, and no other CPU holds an earlier pending
// event. The CPU owning the globally earliest event always qualifies, so
// the driver cannot stall.
func (sched *Scheduler) safeIdleAdvance(c *CPU, at sim.Time) bool {
	for _, d := range sched.cpus {
		if d == c {
			continue
		}
		if d.ready.size > 0 && d.clock.Now() < at {
			return false
		}
		if dat, ok := d.engine.NextEventTime(); ok && dat < at {
			return false
		}
	}
	return true
}

// pickCPU selects the eligible CPU with the earliest clock (lowest id on
// ties) — the conservative rule sim.Cluster applies to whole machines.
func (sched *Scheduler) pickCPU() *CPU {
	var best *CPU
	for _, c := range sched.cpus {
		if !sched.eligible(c) {
			continue
		}
		if best == nil || c.clock.Now() < best.clock.Now() {
			best = c
		}
	}
	return best
}

// Run drives the virtual CPUs until no strand is runnable and no timer is
// pending: the scheduler loop of the machine. Each iteration steps the
// eligible CPU with the earliest clock; a step delivers due engine events,
// dispatches one strand slice (stealing from a sibling's queue when the
// local one is empty), or idles the CPU forward to its next event.
func (sched *Scheduler) Run() {
	for {
		c := sched.pickCPU()
		if c == nil {
			return
		}
		sched.active = c
		c.step()
		sched.active = nil
	}
}

// dispatch runs one slice of next on c: charge the context switch, raise
// Checkpoint/Resume, hand over the CPU token, and wait for it back.
func (c *CPU) dispatch(next *Strand) {
	sched := c.sched
	// Respect the wakeup timestamp: a strand made runnable by a CPU whose
	// clock is ahead must not run in that CPU's past.
	if next.readyAt > c.clock.Now() {
		c.clock.AdvanceTo(next.readyAt)
	}
	if c.last != next {
		c.clock.Advance(sched.profile.ContextSwitch)
		c.switches++
		sched.observe(SchedEvent{Kind: "switch", Strand: next.name, CPU: c.id, From: c.id, At: c.clock.Now()})
		if c.last != nil && !c.last.exited {
			sched.disp.RaiseEvent(sched.evCheckpoint, c.last)
		}
		sched.disp.RaiseEvent(sched.evResume, next)
	}
	c.last = next
	c.current = next
	next.state = Running
	if !next.started {
		next.started = true
		go func(s *Strand) {
			<-s.token
			// Entry guard: a panic in the strand body — organic or
			// from the "sched.strand" site — kills this strand only.
			// exit() still runs, so the CPU token returns to the
			// scheduler loop and other strands keep running.
			defer func() {
				if r := recover(); r != nil {
					s.sched.strandFaults++
					if tr := s.sched.disp.Tracer(); tr != nil {
						tr.Trace(trace.Record{
							Event: "sched.strand.panic", Origin: "sched",
							Start: s.cpu.clock.Now(), Outcome: trace.OutcomeFaulted,
						})
					}
				}
				s.exit()
			}()
			f := s.sched.disp.InjectorInstalled().Fire("sched.strand")
			if f.Kind == faultinject.KindError || f.Kind == faultinject.KindDrop {
				return // injected: strand dies before its body runs
			}
			s.body(s)
		}(next)
	}
	// Hand over the CPU and wait for it back, timing the slice (the
	// virtual time the strand held the CPU) when tracing is enabled.
	tr := sched.disp.Tracer()
	var sliceStart sim.Time
	if tr != nil {
		sliceStart = c.clock.Now()
	}
	next.token <- struct{}{}
	<-sched.yieldCh
	if tr != nil {
		tr.Observe("sched.slice", c.clock.Now().Sub(sliceStart))
	}
	c.current = nil
}

// yieldToScheduler gives the CPU back to the scheduler loop and waits to be
// rescheduled (unless dying).
func (s *Strand) yieldToScheduler(dying bool) {
	s.sched.yieldCh <- struct{}{}
	if dying {
		return
	}
	<-s.token
}

// exit terminates the strand.
func (s *Strand) exit() {
	s.exited = true
	s.state = Dead
	s.yieldToScheduler(true)
}

// BlockSelf blocks the calling strand and yields; the strand resumes after
// someone Unblocks it. Must be called from the strand's own body.
func (s *Strand) BlockSelf() {
	s.cpu.clock.Advance(s.sched.profile.SchedOp)
	s.sched.disp.RaiseEvent(s.sched.evCheckpoint, s)
	s.sched.disp.RaiseEvent(s.sched.evBlock, s)
	s.yieldToScheduler(false)
}

// Yield is a preemption point: the caller goes to the back of its run queue
// and the scheduler re-picks — delivering any due timer or interrupt events
// on the way. If nothing else is runnable the caller continues immediately
// (re-picking the same strand does not charge a context switch). The kernel
// is preemptive — strand code is expected to pass preemption points
// regularly, so a handler cannot take over the processor.
func (s *Strand) Yield() {
	s.state = Runnable
	s.readyAt = s.cpu.clock.Now()
	s.cpu.ready.push(s)
	s.yieldToScheduler(false)
}

// Exec consumes d of virtual CPU time on the strand's current CPU — the
// simulated equivalent of a compute burst. Must be called from the
// strand's own body.
func (s *Strand) Exec(d sim.Duration) {
	s.cpu.clock.Advance(d)
}

// Start makes a fresh strand runnable. (Convenience for Unblock on a
// newly created strand.)
func (sched *Scheduler) Start(s *Strand) { sched.Unblock(s) }

// Switches reports context switches performed across all CPUs.
func (sched *Scheduler) Switches() int64 {
	var n int64
	for _, c := range sched.cpus {
		n += c.switches
	}
	return n
}

// StrandFaults reports strand-body panics contained by the entry guard.
func (sched *Scheduler) StrandFaults() int64 { return sched.strandFaults }

// Current returns the strand holding a CPU, if any. (At most one strand
// runs at a time; per-CPU virtual time overlaps, host execution does not.)
func (sched *Scheduler) Current() *Strand {
	if c := sched.active; c != nil {
		return c.current
	}
	for _, c := range sched.cpus {
		if c.current != nil {
			return c.current
		}
	}
	return nil
}

// GuardStrandOwner builds a dispatch guard admitting only events for
// strands in the given set — the trusted package's mechanism for ensuring
// "extensions do not install handlers on strands for which they do not
// possess a capability".
func GuardStrandOwner(owned ...*Strand) dispatch.Guard {
	set := make(map[*Strand]bool, len(owned))
	for _, s := range owned {
		set[s] = true
	}
	return func(arg any) bool {
		s, ok := arg.(*Strand)
		return ok && set[s]
	}
}
