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
}

// NewCluster returns an empty cluster.
func NewCluster(engines ...*Engine) *Cluster {
	return &Cluster{engines: engines}
}

// Add registers an engine with the cluster.
func (c *Cluster) Add(e *Engine) { c.engines = append(c.engines, e) }

// Engines returns the cluster's engines in registration order (the slice is
// shared; callers must not mutate it).
func (c *Cluster) Engines() []*Engine { return c.engines }

// next returns the engine with the earliest pending event, or nil.
func (c *Cluster) next() *Engine {
	var best *Engine
	var bestAt Time
	for _, e := range c.engines {
		at, ok := e.NextEventTime()
		if !ok {
			continue
		}
		if best == nil || at < bestAt {
			best, bestAt = e, at
		}
	}
	return best
}

// Step runs the globally earliest event. It returns false when every engine
// is drained.
func (c *Cluster) Step() bool {
	e := c.next()
	if e == nil {
		return false
	}
	return e.Step()
}

// Run steps until all engines drain or the earliest pending event is past
// deadline (0 means none). It returns the number of events executed.
func (c *Cluster) Run(deadline Time) int {
	n := 0
	for {
		e := c.next()
		if e == nil {
			return n
		}
		at, _ := e.NextEventTime()
		if deadline != 0 && at > deadline {
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
		e := c.next()
		if e == nil {
			return pred()
		}
		at, _ := e.NextEventTime()
		if deadline != 0 && at > deadline {
			return pred()
		}
		e.Step()
	}
	return true
}
