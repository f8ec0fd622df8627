package sim

import "unsafe"

// Event is a scheduled simulation callback. Engine.At returns one to hold
// and maybe Cancel. The zero Event with Do set is an owner-held timer: it
// lives in the struct that owns it, Engine.Arm schedules it any number of
// times and Disarm stops it, and nothing is allocated on the way.
type Event struct {
	At     Time
	Do     func()
	seq    int64 // tie-break: FIFO among same-time events
	cancel bool
	posted bool  // the Event of a posted, which Step fires through it
	pos    int32 // 1 + index in the eventQueue holding it, 0 when in none
}

// Cancel marks the event so it will be skipped when its time arrives, and
// drops Do so that whatever the callback captured is collectable now rather
// than when the queue reaches the event. It is for events At returned; an
// owner-held event is stopped with Disarm.
func (e *Event) Cancel() { e.cancel, e.Do = true, nil }

// Cancelled reports whether Cancel or Disarm was called since the event
// was last scheduled.
func (e *Event) Cancelled() bool { return e.cancel }

// Disarm stops an owner-held event from firing and keeps its callback for
// the next Arm. The queue entry stays until Arm withdraws it or the queue
// reaches it.
func (e *Event) Disarm() { e.cancel = true }

// Armed reports whether the event is queued and will fire.
func (e *Event) Armed() bool { return e.pos != 0 && !e.cancel }

// before is the queue order: time, then seq.
func (e *Event) before(o *Event) bool {
	if e.At != o.At {
		return e.At < o.At
	}
	return e.seq < o.seq
}

// eventQueue is a binary min-heap of events in before order, each event
// recording its position. An Engine keeps its scheduled events in one; a
// Cluster keeps one head marker per engine in another.
type eventQueue []*Event

func (q *eventQueue) push(ev *Event) {
	*q = append(*q, ev)
	q.up(len(*q) - 1)
}

// remove takes the event at index i out of the queue; remove(0) is pop.
func (q *eventQueue) remove(i int) *Event {
	h := *q
	n := len(h) - 1
	ev, last := h[i], h[n]
	h[n] = nil
	*q = h[:n]
	if i < n {
		h[i] = last
		q.down(i)
		if int(last.pos) == i+1 {
			q.up(i)
		}
	}
	ev.pos = 0
	return ev
}

// up restores heap order after the key of the event at index i decreased.
func (q eventQueue) up(i int) {
	ev := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(q[p]) {
			break
		}
		q[i] = q[p]
		q[i].pos = int32(i) + 1
		i = p
	}
	q[i] = ev
	ev.pos = int32(i) + 1
}

// down restores heap order after the key of the event at index i increased.
func (q eventQueue) down(i int) {
	ev := q[i]
	for {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if c+1 < len(q) && q[c+1].before(q[c]) {
			c++
		}
		if !q[c].before(ev) {
			break
		}
		q[i] = q[c]
		q[i].pos = int32(i) + 1
		i = c
	}
	q[i] = ev
	ev.pos = int32(i) + 1
}

// Engine couples a Clock with a time-ordered event queue. It is the heart of
// the discrete-event simulation: device interrupts, wire deliveries, timer
// expirations and preemption ticks are all Events.
//
// There are three ways to schedule. At takes any closure and returns the
// event, for what is rare or may be cancelled by someone else. Post carries
// a static function and its operands in an event the engine recycles, for
// the per-packet hand-off nobody cancels. Arm schedules an Event embedded
// in the struct that owns it, for a timer its owner sets again and again.
// All three draw one seq from the same counter, so which one a site uses
// does not change the order events run in.
type Engine struct {
	Clock *Clock
	queue eventQueue
	seq   int64
	free  []*posted // fired Post events, for reuse; at most the peak queue depth
	// slab is where Post carves events the free list cannot supply, the
	// first carved of them in use. Each new slab is twice the last, from 4
	// up to 64 events, so an engine that only ever posts a few pays for a
	// few.
	slab   []posted
	carved int

	// cluster is the Cluster the engine was last added to, if any, and head
	// is what stands for the engine in that cluster's ready queue: head.At
	// is never later than the engine's earliest queued event (cancelled or
	// not) and head.seq is the engine's registration index.
	cluster *Cluster
	head    Event
}

// NewEngine returns an engine with a fresh clock at time zero.
func NewEngine() *Engine {
	return &Engine{Clock: NewClock()}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.Clock.Now() }

// schedule queues ev, which is in no queue, to fire at t, or now if t is in
// the past.
func (e *Engine) schedule(ev *Event, t Time) {
	if t < e.Clock.Now() {
		t = e.Clock.Now()
	}
	ev.At, ev.seq, ev.cancel = t, e.seq, false
	e.seq++
	e.queue.push(ev)
	// Only an earlier head can break head.At's lower bound, so this is the
	// one place an engine has to tell its cluster anything; pops only raise
	// the head, and Cluster.next catches up with those at the root.
	if c := e.cluster; c != nil {
		if e.head.pos == 0 {
			e.head.At = t
			c.ready.push(&e.head)
		} else if t < e.head.At {
			e.head.At = t
			c.ready.up(int(e.head.pos) - 1)
		}
	}
}

// At schedules fn to run at absolute virtual time t. If t is in the past it
// runs at the current time (next Step).
func (e *Engine) At(t Time, fn func()) *Event {
	ev := &Event{Do: fn}
	e.schedule(ev, t)
	return ev
}

// posted is the event behind Post. The caller never sees it, so it can be
// neither cancelled nor held past its firing, which is what makes it safe
// to use again. Its Event comes first, so Step can go from the one to the
// other.
type posted struct {
	Event
	fn            func(recv, payload any, n int)
	recv, payload any
	n             int
}

// Slab sizes, in events.
const (
	minSlab = 4
	maxSlab = 64
)

// Post schedules fn(recv, payload, n) to run at t, like At, in an event
// taken from the engine's free list, or else carved from its slab. With fn
// a function value that captures nothing and pointers in recv and payload,
// a Post allocates nothing once the list has grown to the queue's depth,
// and one slab per up to 64 events before that.
func (e *Engine) Post(t Time, fn func(recv, payload any, n int), recv, payload any, n int) {
	var p *posted
	if last := len(e.free) - 1; last >= 0 {
		p, e.free = e.free[last], e.free[:last]
	} else {
		if e.carved == len(e.slab) {
			e.slab, e.carved = make([]posted, min(max(2*len(e.slab), minSlab), maxSlab)), 0
		}
		p = &e.slab[e.carved]
		p.posted = true
		e.carved++
	}
	p.fn, p.recv, p.payload, p.n = fn, recv, payload, n
	e.schedule(&p.Event, t)
}

// fire hands the event back before it calls fn, operands cleared, so that
// fn may Post again and be given the same one, and the event holds on to
// nothing while it waits.
func (e *Engine) fire(p *posted) {
	fn, recv, payload, n := p.fn, p.recv, p.payload, p.n
	p.fn, p.recv, p.payload = nil, nil, nil
	e.free = append(e.free, p)
	fn(recv, payload, n)
}

// Arm schedules the owner-held event ev to fire d after the current time,
// like After, and withdraws it first if it is still queued, armed or
// disarmed. An event is always armed on the same engine.
func (e *Engine) Arm(ev *Event, d Duration) {
	if ev.pos != 0 {
		e.queue.remove(int(ev.pos) - 1)
	}
	e.schedule(ev, e.Clock.Now().Add(d))
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Duration, fn func()) *Event {
	return e.At(e.Clock.Now().Add(d), fn)
}

// Pending reports the number of live (uncancelled) queued events.
func (e *Engine) Pending() int {
	n := 0
	for _, ev := range e.queue {
		if !ev.cancel {
			n++
		}
	}
	return n
}

// Step pops and runs the earliest event, advancing the clock to its time as
// idle time (the CPU was waiting for it). It returns false when the queue is
// empty. Cancelled events are discarded without running.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := e.queue.remove(0)
		if ev.cancel {
			continue
		}
		e.Clock.AdvanceTo(ev.At)
		if ev.posted {
			e.fire((*posted)(unsafe.Pointer(ev)))
		} else {
			ev.Do()
		}
		return true
	}
	return false
}

// NextEventTime reports the time of the engine's earliest live event,
// discarding cancelled heads on the way.
func (e *Engine) NextEventTime() (Time, bool) {
	for len(e.queue) > 0 {
		if !e.queue[0].cancel {
			return e.queue[0].At, true
		}
		e.queue.remove(0)
	}
	return 0, false
}

// Run steps until the queue drains or the next live event lies past
// deadline (0 means no deadline), in which case the clock stops at deadline.
// It returns the number of events executed.
func (e *Engine) Run(deadline Time) int {
	n := 0
	for {
		at, ok := e.NextEventTime()
		if !ok {
			return n
		}
		if deadline != 0 && at > deadline {
			e.Clock.AdvanceTo(deadline)
			return n
		}
		e.Step()
		n++
	}
}

// RunUntil steps until pred() is true, the queue drains, or the clock passes
// deadline. It reports whether pred became true.
func (e *Engine) RunUntil(pred func() bool, deadline Time) bool {
	for !pred() {
		at, ok := e.NextEventTime()
		if !ok {
			return pred()
		}
		if deadline != 0 && at > deadline {
			e.Clock.AdvanceTo(deadline)
			return pred()
		}
		e.Step()
	}
	return true
}
