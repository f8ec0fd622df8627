package sim

import "container/heap"

// Event is a scheduled simulation callback.
type Event struct {
	At     Time
	Do     func()
	seq    int64 // tie-break: FIFO among same-time events
	cancel bool
}

// Cancel marks the event so it will be skipped when its time arrives.
func (e *Event) Cancel() { e.cancel = true }

// Cancelled reports whether Cancel was called.
func (e *Event) Cancelled() bool { return e.cancel }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*Event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Engine couples a Clock with a time-ordered event queue. It is the heart of
// the discrete-event simulation: device interrupts, wire deliveries, timer
// expirations and preemption ticks are all Events.
type Engine struct {
	Clock *Clock
	queue eventHeap
	seq   int64
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
	heap.Push(&e.queue, ev)
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
		ev := heap.Pop(&e.queue).(*Event)
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
		heap.Pop(&e.queue)
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
