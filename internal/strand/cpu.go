package strand

import (
	"fmt"
	"sync"
	"sync/atomic"

	"spin/internal/metrics"
	"spin/internal/sim"
	"spin/internal/trace"
)

// This file implements the multi-CPU half of the strand scheduler: per-CPU
// run queues held as copy-on-write snapshots, randomized work stealing on
// idle, and strand→CPU affinity with migration accounting. The paper's
// extensibility story is unchanged — Block/Unblock/Checkpoint/Resume are
// still dispatcher events, subschedulers still install guarded handlers,
// and GuardStrandOwner still gates strand capabilities — the scheduler
// merely multiplexes several virtual processors instead of one.
//
// Each CPU is bound to one sim.Engine and therefore owns its own virtual
// clock: strands on different CPUs consume virtual time concurrently, so a
// batch of strands finishes in roughly 1/N the virtual makespan on N CPUs.
// The driver remains a single host goroutine stepping the CPU with the
// earliest clock (the same conservative rule sim.Cluster uses for
// machines), so execution stays deterministic under a fixed seed.

// readyList is an immutable snapshot of one CPU's runnable strands:
// priority levels sorted descending, FIFO order within a level. Readers
// (steal scans, the cluster driver's eligibility checks, debuggers) load
// the snapshot lock-free; writers copy the spine and the level they touch
// and swap the pointer under the CPU's writer mutex — the same
// copy-on-write discipline as the dispatcher's event state.
type readyList struct {
	prios []int
	qs    [][]*Strand
	size  int
}

var emptyReady = &readyList{}

// level finds the index of prio in rl.prios, or the insertion point.
func (rl *readyList) level(prio int) (int, bool) {
	for i, p := range rl.prios {
		if p == prio {
			return i, true
		}
		if p < prio {
			return i, false
		}
	}
	return len(rl.prios), false
}

// push returns a new list with s appended to the back of its priority level.
func (rl *readyList) push(s *Strand) *readyList {
	i, ok := rl.level(s.prio)
	next := &readyList{size: rl.size + 1}
	if ok {
		next.prios = append([]int(nil), rl.prios...)
		next.qs = append([][]*Strand(nil), rl.qs...)
		q := make([]*Strand, 0, len(rl.qs[i])+1)
		q = append(q, rl.qs[i]...)
		next.qs[i] = append(q, s)
		return next
	}
	next.prios = make([]int, 0, len(rl.prios)+1)
	next.qs = make([][]*Strand, 0, len(rl.qs)+1)
	next.prios = append(next.prios, rl.prios[:i]...)
	next.prios = append(next.prios, s.prio)
	next.prios = append(next.prios, rl.prios[i:]...)
	next.qs = append(next.qs, rl.qs[:i]...)
	next.qs = append(next.qs, []*Strand{s})
	next.qs = append(next.qs, rl.qs[i:]...)
	return next
}

// dropLevel returns a copy of rl with level i replaced by q (or removed
// when q is empty).
func (rl *readyList) withLevel(i int, q []*Strand) *readyList {
	next := &readyList{size: rl.size - 1}
	if len(q) == 0 {
		next.prios = make([]int, 0, len(rl.prios)-1)
		next.qs = make([][]*Strand, 0, len(rl.qs)-1)
		next.prios = append(next.prios, rl.prios[:i]...)
		next.prios = append(next.prios, rl.prios[i+1:]...)
		next.qs = append(next.qs, rl.qs[:i]...)
		next.qs = append(next.qs, rl.qs[i+1:]...)
		return next
	}
	next.prios = append([]int(nil), rl.prios...)
	next.qs = append([][]*Strand(nil), rl.qs...)
	next.qs[i] = q
	return next
}

// pop returns the front of the highest priority level — the strand the CPU
// runs next.
func (rl *readyList) pop() (*Strand, *readyList) {
	if rl.size == 0 {
		return nil, rl
	}
	q := rl.qs[0]
	return q[0], rl.withLevel(0, q[1:])
}

// stealTail returns the back of the lowest priority level — the coldest
// queued work, the classic victim end for a thief so the owner keeps the
// strands it is about to run.
func (rl *readyList) stealTail() (*Strand, *readyList) {
	if rl.size == 0 {
		return nil, rl
	}
	i := len(rl.qs) - 1
	q := rl.qs[i]
	return q[len(q)-1], rl.withLevel(i, q[:len(q)-1])
}

// remove returns a list without s, reporting whether s was present.
func (rl *readyList) remove(s *Strand) (*readyList, bool) {
	i, ok := rl.level(s.prio)
	if !ok {
		return rl, false
	}
	for j, x := range rl.qs[i] {
		if x == s {
			q := make([]*Strand, 0, len(rl.qs[i])-1)
			q = append(q, rl.qs[i][:j]...)
			q = append(q, rl.qs[i][j+1:]...)
			return rl.withLevel(i, q), true
		}
	}
	return rl, false
}

// CPU is one virtual processor of the scheduler: an engine (and therefore a
// clock) plus a run queue and scheduling counters.
type CPU struct {
	id     int
	sched  *Scheduler
	engine *sim.Engine
	clock  *sim.Clock

	// mu serializes writers of the ready snapshot (own enqueue/dequeue and
	// thieves); readers load the pointer lock-free.
	mu    sync.Mutex
	ready atomic.Pointer[readyList]

	// current/last are driver-goroutine state, synchronized with strand
	// bodies through the CPU-token channel handoffs.
	current *Strand
	last    *Strand

	switches   atomic.Int64
	steals     atomic.Int64
	migrations atomic.Int64

	// rng picks steal victims; seeded deterministically per CPU so runs
	// replay exactly from the scheduler's steal seed.
	rng *sim.Rand
}

func newCPU(id int, sched *Scheduler, engine *sim.Engine, seed uint64) *CPU {
	c := &CPU{id: id, sched: sched, engine: engine, clock: engine.Clock}
	c.ready.Store(emptyReady)
	c.reseed(seed)
	return c
}

func (c *CPU) reseed(seed uint64) {
	c.rng = sim.NewRand(seed + 0x9E3779B97F4A7C15*uint64(c.id+1))
}

// enqueue appends s to the back of its priority level.
func (c *CPU) enqueue(s *Strand) {
	c.mu.Lock()
	c.ready.Store(c.ready.Load().push(s))
	c.mu.Unlock()
}

// dequeue removes s, reporting whether it was queued.
func (c *CPU) dequeue(s *Strand) bool {
	c.mu.Lock()
	next, ok := c.ready.Load().remove(s)
	if ok {
		c.ready.Store(next)
	}
	c.mu.Unlock()
	return ok
}

// popLocal takes the next strand off this CPU's own queue.
func (c *CPU) popLocal() *Strand {
	c.mu.Lock()
	s, next := c.ready.Load().pop()
	if s != nil {
		c.ready.Store(next)
	}
	c.mu.Unlock()
	return s
}

// takeTail surrenders the coldest queued strand to a thief.
func (c *CPU) takeTail() *Strand {
	c.mu.Lock()
	s, next := c.ready.Load().stealTail()
	if s != nil {
		c.ready.Store(next)
	}
	c.mu.Unlock()
	return s
}

// trySteal scans the other CPUs in deterministic random order and steals
// one queued strand. The stolen strand migrates: its home CPU becomes the
// thief, so subsequent Unblocks and Yields keep it here until it is stolen
// again or explicitly re-homed.
func (c *CPU) trySteal() *Strand {
	sched := c.sched
	n := len(sched.cpus)
	if n == 1 {
		return nil
	}
	for _, vi := range c.rng.Perm(n - 1) {
		victim := sched.cpus[(c.id+1+vi)%n]
		// An installed steal policy (verified bytecode) may veto this
		// victim; the scan then continues with the next candidate.
		if c.stealVetoed(victim) {
			continue
		}
		s := victim.takeTail()
		if s == nil {
			continue
		}
		// The steal is scheduler bookkeeping on the thief: one run-queue
		// transition charge, same as any block/unblock.
		c.clock.Advance(sched.profile.SchedOp)
		c.steals.Add(1)
		s.cpu = c
		c.migrations.Add(1)
		sched.observe(SchedEvent{Kind: "steal", Strand: s.name, CPU: c.id, From: victim.id, At: c.clock.Now()})
		sched.observe(SchedEvent{Kind: "migrate", Strand: s.name, CPU: c.id, From: victim.id, At: c.clock.Now()})
		if tr := sched.disp.Tracer(); tr != nil {
			tr.Trace(trace.Record{Event: "sched.steal", Origin: "sched", Start: c.clock.Now(), Outcome: trace.OutcomeOK})
			tr.Trace(trace.Record{Event: "sched.migrate", Origin: "sched", Start: c.clock.Now(), Outcome: trace.OutcomeOK})
		}
		return s
	}
	return nil
}

// step performs one scheduling action on this CPU: deliver due engine
// events, then dispatch one strand slice (local or stolen), else advance
// idle time to the engine's next event. It reports whether progress was
// made.
func (c *CPU) step() bool {
	progress := false
	for {
		at, ok := c.engine.NextEventTime()
		if !ok || at > c.clock.Now() {
			break
		}
		c.engine.Step()
		progress = true
	}
	next := c.popLocal()
	if next == nil {
		next = c.trySteal()
	}
	if next == nil {
		if at, ok := c.engine.NextEventTime(); ok && c.sched.safeIdleAdvance(c, at) {
			return c.engine.Step() || progress
		}
		return progress
	}
	c.dispatch(next)
	return true
}

// SchedEvent is one observed scheduling action. An observer registered with
// SetObserver sees the exact switch/steal/migrate sequence, which the
// determinism tests compare byte for byte across seeded runs.
type SchedEvent struct {
	// Kind is "switch", "steal", or "migrate".
	Kind string
	// Strand is the name of the strand involved.
	Strand string
	// CPU is the acting CPU (the thief or new home for steal/migrate).
	CPU int
	// From is the source CPU for steal/migrate; equal to CPU for switch.
	From int
	// At is the acting CPU's virtual time.
	At sim.Time
}

func (e SchedEvent) String() string {
	return fmt.Sprintf("%s %s cpu%d<-%d @%v", e.Kind, e.Strand, e.CPU, e.From, e.At)
}

// NumCPUs reports how many virtual processors the scheduler multiplexes.
func (sched *Scheduler) NumCPUs() int { return len(sched.cpus) }

// Steals reports strands taken from another CPU's run queue.
func (sched *Scheduler) Steals() int64 {
	var n int64
	for _, c := range sched.cpus {
		n += c.steals.Load()
	}
	return n
}

// Migrations reports strand home-CPU changes (steals and SetAffinity moves).
func (sched *Scheduler) Migrations() int64 {
	var n int64
	for _, c := range sched.cpus {
		n += c.migrations.Load()
	}
	return n
}

// Metrics emits each CPU's switches, steals, migrations, run-queue depth
// and virtual time under a cpu label, the contained strand faults, and the
// installed steal policy. Counters are atomics: safe from any goroutine.
func (sched *Scheduler) Metrics(emit metrics.Emit) {
	for _, c := range sched.cpus {
		l := fmt.Sprintf("{cpu=\"%d\"}", c.id)
		emit("strand_switches"+l, float64(c.switches.Load()))
		emit("strand_steals"+l, float64(c.steals.Load()))
		emit("strand_migrations"+l, float64(c.migrations.Load()))
		emit("strand_ready"+l, float64(c.ready.Load().size))
		emit("strand_clock_ns"+l, float64(c.clock.Now()))
	}
	emit("strand_faults", float64(sched.strandFaults.Load()))
	if p := sched.stealPolicy.Load(); p != nil {
		p.Metrics(emit)
	}
}
