package sim

// Cluster coordinates several Engines — one per simulated machine — into a
// single causally consistent simulation. Each machine has its own clock;
// cross-machine interactions (wire deliveries) are scheduled on the
// destination engine at sender-local-time + delay. The cluster always steps
// the engine with the globally earliest pending event, the classic
// conservative strategy: an engine's new events are never earlier than its
// own clock, so stepping the minimum cannot violate causality.
type Cluster struct {
	engines []*Engine
	// ready holds the head marker of every engine that may have a queued
	// event, so the minimum is found in O(log engines). A marker's time is a
	// lower bound on its engine's earliest event, exact once next has looked
	// at it; its seq is the engine's index in engines, so same-time events
	// on different engines run in registration order.
	ready eventQueue
}

// NewCluster returns a cluster of the given engines.
func NewCluster(engines ...*Engine) *Cluster {
	c := &Cluster{}
	for _, e := range engines {
		c.Add(e)
	}
	return c
}

// Add registers an engine, with whatever it already has queued, as the
// cluster's last. An engine belongs to one cluster at a time: adding one
// that is in another cluster moves it here, and the other cluster forgets
// it. Adding an engine the cluster already has does nothing.
//
// A member may still be stepped directly (Engine.Step, Run, RunUntil), as
// the strand scheduler and Machine.Run do; the cluster's next choice stays
// correct because direct steps only move the engine's head later.
func (c *Cluster) Add(e *Engine) {
	if e.cluster == c {
		return
	}
	if e.cluster != nil {
		e.cluster.remove(e)
	}
	e.cluster = c
	e.head = Event{seq: int64(len(c.engines))}
	c.engines = append(c.engines, e)
	if len(e.queue) > 0 {
		e.head.At = e.queue[0].At
		c.ready.push(&e.head)
	}
}

// remove forgets e; the engines registered after it move up one place,
// which leaves their order in ready as it was.
func (c *Cluster) remove(e *Engine) {
	if e.head.pos != 0 {
		c.ready.remove(int(e.head.pos) - 1)
	}
	i := int(e.head.seq)
	c.engines = append(c.engines[:i], c.engines[i+1:]...)
	for _, later := range c.engines[i:] {
		later.head.seq--
	}
}

// Engines returns the cluster's engines in registration order (the slice is
// shared; callers must not mutate it).
func (c *Cluster) Engines() []*Engine { return c.engines }

// next returns the engine with the earliest live event and that event's
// time, or nil: the minimum of (time, registration index). It brings the
// root marker up to date — drained engine, cancelled head, head later than
// the marker says — until the root is exact. Every other marker is a lower
// bound no smaller than the root, so no engine has an earlier live event,
// nor one at the same time with a smaller index.
func (c *Cluster) next() (*Engine, Time) {
	for len(c.ready) > 0 {
		m := c.ready[0]
		e := c.engines[m.seq]
		switch {
		case len(e.queue) == 0:
			c.ready.remove(0)
		case e.queue[0].cancel:
			e.queue.remove(0)
		case e.queue[0].At != m.At:
			m.At = e.queue[0].At
			c.ready.down(0)
		default:
			return e, m.At
		}
	}
	return nil, 0
}

// Step runs the globally earliest event. It returns false when every engine
// is drained.
func (c *Cluster) Step() bool {
	e, _ := c.next()
	return e != nil && e.Step()
}

// Run steps until all engines drain or the earliest pending event is past
// deadline (0 means none). It returns the number of events executed.
func (c *Cluster) Run(deadline Time) int {
	n := 0
	for {
		e, at := c.next()
		if e == nil || deadline != 0 && at > deadline {
			return n
		}
		if e.Step() {
			n++
		}
	}
}

// RunUntil steps until pred() holds, everything drains, or deadline passes.
// It reports whether pred became true.
func (c *Cluster) RunUntil(pred func() bool, deadline Time) bool {
	for !pred() {
		e, at := c.next()
		if e == nil || deadline != 0 && at > deadline {
			return pred()
		}
		e.Step()
	}
	return true
}
