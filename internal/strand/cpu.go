package strand

import (
	"fmt"
	"slices"

	"spin/internal/metrics"
	"spin/internal/sim"
	"spin/internal/trace"
)

// This file implements the multi-CPU half of the strand scheduler: per-CPU
// run queues edited in place, and randomized work stealing on idle with
// migration accounting. The paper's
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

// runQueue is one CPU's runnable strands: priority levels sorted
// descending, FIFO order within a level, edited in place, size of them. A
// level emptied by a pop stays in place, so its slice's capacity serves
// the next push.
type runQueue struct {
	levels []runLevel
	size   int
}

type runLevel struct {
	prio    int
	strands []*Strand
}

// push appends s to the back of its priority level.
func (q *runQueue) push(s *Strand) {
	i := 0
	for i < len(q.levels) && q.levels[i].prio > s.prio {
		i++
	}
	if i == len(q.levels) || q.levels[i].prio != s.prio {
		q.levels = slices.Insert(q.levels, i, runLevel{prio: s.prio})
	}
	q.levels[i].strands = append(q.levels[i].strands, s)
	q.size++
}

// pop takes the front of the highest non-empty level — the strand the CPU
// runs next.
func (q *runQueue) pop() *Strand {
	for i := range q.levels {
		if len(q.levels[i].strands) > 0 {
			return q.take(&q.levels[i], 0)
		}
	}
	return nil
}

// stealTail takes the back of the lowest non-empty level — the coldest
// queued work, the classic victim end for a thief so the owner keeps the
// strands it is about to run.
func (q *runQueue) stealTail() *Strand {
	for i := len(q.levels) - 1; i >= 0; i-- {
		if l := &q.levels[i]; len(l.strands) > 0 {
			return q.take(l, len(l.strands)-1)
		}
	}
	return nil
}

// remove takes s out of the queue, reporting whether it was queued.
func (q *runQueue) remove(s *Strand) bool {
	for i := range q.levels {
		if l := &q.levels[i]; l.prio == s.prio {
			if j := slices.Index(l.strands, s); j >= 0 {
				q.take(l, j)
				return true
			}
		}
	}
	return false
}

// take removes and returns the j-th strand of level l.
func (q *runQueue) take(l *runLevel, j int) *Strand {
	s := l.strands[j]
	l.strands = slices.Delete(l.strands, j, j+1)
	q.size--
	return s
}

// CPU is one virtual processor of the scheduler: an engine (and therefore a
// clock) plus a run queue and scheduling counters.
type CPU struct {
	id     int
	sched  *Scheduler
	engine *sim.Engine
	clock  *sim.Clock

	// ready, current and last are driver-goroutine state, synchronized
	// with strand bodies through the CPU-token channel handoffs.
	ready   runQueue
	current *Strand
	last    *Strand

	switches, steals, migrations int64

	// rng picks steal victims; seeded deterministically per CPU so runs
	// replay exactly from the scheduler's steal seed.
	rng *sim.Rand
}

func newCPU(id int, sched *Scheduler, engine *sim.Engine, seed uint64) *CPU {
	c := &CPU{id: id, sched: sched, engine: engine, clock: engine.Clock}
	c.reseed(seed)
	return c
}

func (c *CPU) reseed(seed uint64) {
	c.rng = sim.NewRand(seed + 0x9E3779B97F4A7C15*uint64(c.id+1))
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
		s := victim.ready.stealTail()
		if s == nil {
			continue
		}
		// The steal is scheduler bookkeeping on the thief: one run-queue
		// transition charge, same as any block/unblock.
		c.clock.Advance(sched.profile.SchedOp)
		c.steals++
		s.cpu = c
		c.migrations++
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
	next := c.ready.pop()
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
		n += c.steals
	}
	return n
}

// Migrations reports strand home-CPU changes (every steal re-homes one).
func (sched *Scheduler) Migrations() int64 {
	var n int64
	for _, c := range sched.cpus {
		n += c.migrations
	}
	return n
}

// Metrics emits each CPU's switches, steals, migrations, run-queue depth
// and virtual time under a cpu label, the contained strand faults, and the
// installed steal policy. Like every read of the scheduler's state, it runs
// on the scheduler loop, in a strand body, or when Run has returned.
func (sched *Scheduler) Metrics(emit metrics.Emit) {
	for _, c := range sched.cpus {
		l := fmt.Sprintf("{cpu=\"%d\"}", c.id)
		emit("strand_switches"+l, float64(c.switches))
		emit("strand_steals"+l, float64(c.steals))
		emit("strand_migrations"+l, float64(c.migrations))
		emit("strand_ready"+l, float64(c.ready.size))
		emit("strand_clock_ns"+l, float64(c.clock.Now()))
	}
	emit("strand_faults", float64(sched.strandFaults))
	if p := sched.stealPolicy; p != nil {
		p.Metrics(emit)
	}
}
