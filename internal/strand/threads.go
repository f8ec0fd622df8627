package strand

import (
	"spin/internal/sim"
)

// ThreadPkg is the trusted in-kernel thread package exporting the Modula-3
// thread interface: Fork/Join, Mutex, Condition. It is built directly on
// strands (paper: "The implementations of these interfaces are built
// directly from strands and not layered on top of others").
type ThreadPkg struct {
	sched *Scheduler
	prof  *sim.Profile
}

// NewThreadPkg returns the kernel thread package over sched.
func NewThreadPkg(sched *Scheduler) *ThreadPkg {
	return &ThreadPkg{sched: sched, prof: sched.profile}
}

// charge bills one synchronization primitive to the CPU doing the work.
func (p *ThreadPkg) charge() {
	p.sched.actingClock().Advance(p.prof.SyncOp)
}

// Thread is one kernel thread.
type Thread struct {
	pkg     *ThreadPkg
	strand  *Strand
	done    bool
	joiners []*Strand
}

// Fork creates and schedules a kernel thread running body.
func (p *ThreadPkg) Fork(name string, body func()) *Thread {
	t := &Thread{pkg: p}
	t.strand = p.sched.NewStrand(name, 0, func(s *Strand) {
		body()
		t.done = true
		for _, j := range t.joiners {
			p.sched.Unblock(j)
		}
		t.joiners = nil
	})
	p.sched.Start(t.strand)
	return t
}

// Join blocks the calling thread until t terminates. Must be called from
// strand context (inside a running strand's body).
func (p *ThreadPkg) Join(t *Thread) {
	p.charge()
	cur := p.sched.Current()
	if t.done || cur == nil {
		return
	}
	t.joiners = append(t.joiners, cur)
	cur.BlockSelf()
}

// Strand exposes the thread's strand capability.
func (t *Thread) Strand() *Strand { return t.strand }

// Mutex is an in-kernel lock with direct handoff to the first waiter.
type Mutex struct {
	pkg     *ThreadPkg
	holder  *Strand
	waiters []*Strand
}

// NewMutex returns an unlocked mutex.
func (p *ThreadPkg) NewMutex() *Mutex { return &Mutex{pkg: p} }

// Lock acquires m, blocking the calling strand while m is held.
func (m *Mutex) Lock() {
	p := m.pkg
	p.charge()
	cur := p.sched.Current()
	if m.holder == nil {
		m.holder = cur
		return
	}
	m.waiters = append(m.waiters, cur)
	cur.BlockSelf()
	// Direct handoff: Unlock made us the holder before unblocking us.
}

// Unlock releases m, handing it to the first waiter if any.
func (m *Mutex) Unlock() {
	p := m.pkg
	p.charge()
	if len(m.waiters) == 0 {
		m.holder = nil
		return
	}
	next := m.waiters[0]
	m.waiters = m.waiters[1:]
	m.holder = next
	p.sched.Unblock(next)
}

// Condition is a condition variable used with a Mutex.
type Condition struct {
	pkg     *ThreadPkg
	waiters []*Strand
}

// NewCondition returns a condition variable.
func (p *ThreadPkg) NewCondition() *Condition { return &Condition{pkg: p} }

// Wait atomically releases m and blocks; on wakeup it reacquires m.
func (c *Condition) Wait(m *Mutex) {
	p := c.pkg
	p.charge()
	cur := p.sched.Current()
	c.waiters = append(c.waiters, cur)
	m.Unlock()
	cur.BlockSelf()
	m.Lock()
}

// Signal wakes one waiter.
func (c *Condition) Signal() {
	p := c.pkg
	p.charge()
	if len(c.waiters) == 0 {
		return
	}
	next := c.waiters[0]
	c.waiters = c.waiters[1:]
	p.sched.Unblock(next)
}

// Broadcast wakes all waiters.
func (c *Condition) Broadcast() {
	p := c.pkg
	p.charge()
	for _, w := range c.waiters {
		p.sched.Unblock(w)
	}
	c.waiters = nil
}

// Semaphore is a counting semaphore implemented directly on strands (one
// synchronization charge per operation — the kernel treats it as a
// primitive, like thread_sleep/thread_wakeup pairs).
type Semaphore struct {
	pkg     *ThreadPkg
	count   int
	waiters []*Strand
}

// NewSemaphore returns a semaphore with the given initial count.
func (p *ThreadPkg) NewSemaphore(initial int) *Semaphore {
	return &Semaphore{pkg: p, count: initial}
}

// P decrements the semaphore, blocking while it is zero.
func (s *Semaphore) P() {
	p := s.pkg
	p.charge()
	if s.count > 0 {
		s.count--
		return
	}
	cur := p.sched.Current()
	s.waiters = append(s.waiters, cur)
	cur.BlockSelf()
}

// V increments the semaphore and wakes one waiter (direct handoff: the
// woken strand owns the count it was waiting for).
func (s *Semaphore) V() {
	p := s.pkg
	p.charge()
	if len(s.waiters) > 0 {
		next := s.waiters[0]
		s.waiters = s.waiters[1:]
		p.sched.Unblock(next)
		return
	}
	s.count++
}
