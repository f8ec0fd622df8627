package sim

// Event is a scheduled simulation callback.
type Event struct {
	At     Time
	Do     func()
	seq    int64 // tie-break: FIFO among same-time events
	cancel bool
	slot   int32 // index in the eventQueue holding it, -1 once removed
}

// Cancel marks the event so it will be skipped when its time arrives, and
// drops Do so that whatever the callback captured is collectable now rather
// than when the queue reaches the event.
func (e *Event) Cancel() { e.cancel, e.Do = true, nil }

// Cancelled reports whether Cancel was called.
func (e *Event) Cancelled() bool { return e.cancel }

// before is the queue order: time, then seq.
func (e *Event) before(o *Event) bool {
	if e.At != o.At {
		return e.At < o.At
	}
	return e.seq < o.seq
}

// eventQueue is a binary min-heap of events in before order, each event
// recording its slot. An Engine keeps its scheduled events in one; a Cluster
// keeps one head marker per engine in another.
type eventQueue []*Event

func (q *eventQueue) push(ev *Event) {
	*q = append(*q, ev)
	q.up(len(*q) - 1)
}

// remove takes the event in slot i out of the queue; remove(0) is pop.
func (q *eventQueue) remove(i int) *Event {
	h := *q
	n := len(h) - 1
	ev, last := h[i], h[n]
	h[n] = nil
	*q = h[:n]
	if i < n {
		h[i] = last
		q.down(i)
		if int(last.slot) == i {
			q.up(i)
		}
	}
	ev.slot = -1
	return ev
}

// up restores heap order after the key of the event in slot i decreased.
func (q eventQueue) up(i int) {
	ev := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(q[p]) {
			break
		}
		q[i] = q[p]
		q[i].slot = int32(i)
		i = p
	}
	q[i] = ev
	ev.slot = int32(i)
}

// down restores heap order after the key of the event in slot i increased.
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
		q[i].slot = int32(i)
		i = c
	}
	q[i] = ev
	ev.slot = int32(i)
}

// Engine couples a Clock with a time-ordered event queue. It is the heart of
// the discrete-event simulation: device interrupts, wire deliveries, timer
// expirations and preemption ticks are all Events.
type Engine struct {
	Clock *Clock
	queue eventQueue
	seq   int64

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

// At schedules fn to run at absolute virtual time t. If t is in the past it
// runs at the current time (next Step).
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.Clock.Now() {
		t = e.Clock.Now()
	}
	ev := &Event{At: t, Do: fn, seq: e.seq}
	e.seq++
	e.queue.push(ev)
	// Only an earlier head can break head.At's lower bound, so this is the
	// one place an engine has to tell its cluster anything; pops only raise
	// the head, and Cluster.next catches up with those at the root.
	if c := e.cluster; c != nil {
		if e.head.slot < 0 {
			e.head.At = t
			c.ready.push(&e.head)
		} else if t < e.head.At {
			e.head.At = t
			c.ready.up(int(e.head.slot))
		}
	}
	return ev
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
		ev.Do()
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
