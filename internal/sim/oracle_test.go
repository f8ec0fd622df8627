package sim

import "testing"

// referenceNext is Cluster.next as it was before the ready queue: ask every
// engine for its next live event and keep the earliest, ties to the engine
// registered first. It is the definition the indexed cluster must match.
func referenceNext(engines []*Engine) *Engine {
	var best *Engine
	var bestAt Time
	for _, e := range engines {
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

// ran is one executed event: which engine, and its seq there.
type ran struct {
	engine int
	seq    int64
}

// universe is one copy of a seeded random schedule. Two universes built from
// one seed make the same random draws as long as they run the same events in
// the same order, so the first divergence in the trace is the scheduler's.
type universe struct {
	rng     *Rand
	engines []*Engine
	index   map[*Engine]int
	cluster *Cluster // nil: stepped by referenceNext
	trace   []ran
	events  []*Event // every event At returned, run or not
	timers  []*timer // every owner-held event, two an engine
	budget  int      // events still to be scheduled
	posting bool     // a Post handler is running
	seen    map[string]int
}

// timer is an owner-held event, always armed on the same engine.
type timer struct {
	ev    Event
	on    *Engine
	seq   int64 // the seq its latest Arm drew
	fired bool
}

// liveHead is e's earliest uncancelled event, found without disturbing the
// queue: the scan discards cancelled heads on every engine and the cluster
// only where it looks, so nothing here may depend on which are still queued.
func liveHead(e *Engine) *Event {
	var head *Event
	for _, ev := range e.queue {
		if !ev.cancel && (head == nil || ev.before(head)) {
			head = ev
		}
	}
	return head
}

func newUniverse(seed uint64, indexed bool) *universe {
	u := &universe{rng: NewRand(seed), index: map[*Engine]int{}, budget: 400, seen: map[string]int{}}
	if indexed {
		u.cluster = NewCluster()
	}
	for i := 0; i < 2+u.rng.Intn(6); i++ {
		u.addEngine()
	}
	return u
}

// addEngine registers a new engine, sometimes with events already queued.
func (u *universe) addEngine() {
	e := NewEngine()
	u.index[e] = len(u.engines)
	u.engines = append(u.engines, e)
	for i := 0; i < 2; i++ {
		tm := &timer{on: e}
		tm.ev.Do = func() {
			tm.fired = true
			u.ran(e, tm.seq)
		}
		u.timers = append(u.timers, tm)
	}
	for n := u.rng.Intn(3); n > 0; n-- {
		u.schedule(e, Time(u.rng.Intn(20)))
	}
	if u.cluster != nil {
		u.cluster.Add(e)
	}
}

func (u *universe) pick() *Engine { return u.engines[u.rng.Intn(len(u.engines))] }

// schedule queues one event on e, from whichever engine's handler is
// running, in one of the three forms: a closure by At, a recycled event by
// Post, or one of e's two owner-held events by Arm, whatever state that one
// is in. seen counts the cases the oracle is there for.
func (u *universe) schedule(e *Engine, at Time) {
	if u.budget == 0 {
		return
	}
	u.budget--
	seq := e.seq // the one the scheduling below draws
	if u.cluster != nil && e.head.pos != 0 && at < e.head.At {
		u.seen["earlier than the cluster's marker"]++
	}
	switch u.rng.Intn(3) {
	case 0:
		u.events = append(u.events, e.At(at, func() { u.ran(e, seq) }))
	case 1:
		if u.posting {
			u.seen["post from inside a post handler"]++
		}
		e.Post(at, ranPosted, u, e, int(seq))
	case 2:
		tm := u.timers[2*u.index[e]+u.rng.Intn(2)]
		switch {
		case tm.ev.Armed():
			u.seen["arm while armed"]++
		case tm.ev.pos != 0:
			u.seen["arm while disarmed and still queued"]++
		case tm.fired:
			u.seen["arm after firing"]++
		}
		tm.seq = seq
		e.Arm(&tm.ev, Duration(at-e.Now()))
	}
}

func ranPosted(u, e any, seq int) {
	u.(*universe).posting = true
	u.(*universe).ran(e.(*Engine), int64(seq))
	u.(*universe).posting = false
}

// ran is the body of every event: it records itself and then makes more
// work: events on its own and other engines placed before, at and after
// the target's current head, and cancellations of heads and non-heads.
func (u *universe) ran(e *Engine, seq int64) {
	u.trace = append(u.trace, ran{u.index[e], seq})
	for n := u.rng.Intn(4); n > 0; n-- {
		to := e
		if u.rng.Intn(3) > 0 {
			to = u.pick()
		}
		// Sender-local time plus a delay, as a wire delivery would
		// be, or placed around the target's head to force ties and
		// overtakes.
		t := e.Now() + Time(u.rng.Intn(8))
		if head := liveHead(to); head != nil && u.rng.Intn(2) == 0 {
			t = head.At + Time(u.rng.Intn(3)) - 1
		}
		u.schedule(to, t)
	}
	if u.rng.Intn(4) == 0 {
		u.cancelOne()
	}
}

// cancelOne stops an engine's head, or any At event or owner-held event at
// all (most of those still queued are not heads; stopping one that already
// ran is a no-op). A Post event is nobody's to cancel.
func (u *universe) cancelOne() {
	switch u.rng.Intn(3) {
	case 0:
		head := liveHead(u.pick())
		for _, ev := range u.events {
			if ev == head {
				head.Cancel()
			}
		}
		for _, tm := range u.timers {
			if &tm.ev == head {
				head.Disarm()
			}
		}
	case 1:
		if len(u.events) > 0 {
			u.events[u.rng.Intn(len(u.events))].Cancel()
		}
	case 2:
		u.timers[u.rng.Intn(len(u.timers))].ev.Disarm()
	}
}

// between does what callers other than the cluster do to its engines
// between two cluster steps.
func (u *universe) between() {
	switch u.rng.Intn(12) {
	case 0:
		u.addEngine()
	case 1:
		u.pick().Step()
	case 2:
		e := u.pick()
		e.Run(e.Now() + 1 + Time(u.rng.Intn(10)))
	case 3:
		u.pick().Run(0) // drain; later events refill it
	case 4:
		e := u.pick()
		e.RunUntil(func() bool { return u.rng.Intn(3) == 0 }, 0)
	case 5:
		u.pick().NextEventTime()
	case 6:
		u.cancelOne()
	case 7:
		e := u.pick()
		u.schedule(e, e.Now()+Time(u.rng.Intn(5)))
	}
}

// step runs one cluster step and returns the index of the engine chosen, -1
// when everything has drained.
func (u *universe) step() int {
	var e *Engine
	if u.cluster != nil {
		e, _ = u.cluster.next()
		if stepped := u.cluster.Step(); stepped != (e != nil) {
			panic("Cluster.Step disagrees with Cluster.next")
		}
	} else if e = referenceNext(u.engines); e != nil {
		e.Step()
	}
	if e == nil {
		return -1
	}
	return u.index[e]
}

// TestClusterMatchesReferenceScan is the scheduler's oracle: over many
// seeded random schedules, drawn from all three scheduling forms, the
// indexed cluster must choose, step for step, the engine the linear scan
// chooses, and both must execute the same (engine, seq) sequence.
func TestClusterMatchesReferenceScan(t *testing.T) {
	steps, seen := 0, map[string]int{}
	for seed := uint64(1); seed <= 1500; seed++ {
		ref, got := newUniverse(seed, false), newUniverse(seed, true)
		for {
			ref.between()
			got.between()
			want, have := ref.step(), got.step()
			if want != have {
				t.Fatalf("seed %d after %d events: scan steps engine %d, cluster steps engine %d",
					seed, len(ref.trace), want, have)
			}
			if want < 0 {
				break
			}
			steps++
		}
		if len(ref.trace) != len(got.trace) {
			t.Fatalf("seed %d: %d events by the scan, %d by the cluster", seed, len(ref.trace), len(got.trace))
		}
		for i := range ref.trace {
			if ref.trace[i] != got.trace[i] {
				t.Fatalf("seed %d: event %d is %v by the scan, %v by the cluster", seed, i, ref.trace[i], got.trace[i])
			}
		}
		for i, e := range ref.engines {
			if e.Now() != got.engines[i].Now() {
				t.Fatalf("seed %d: engine %d clock %v by the scan, %v by the cluster", seed, i, e.Now(), got.engines[i].Now())
			}
		}
		for k, n := range got.seen {
			seen[k] += n
		}
	}
	if steps < 100_000 {
		t.Fatalf("only %d cluster steps compared; the schedules ran dry", steps)
	}
	for _, k := range []string{"earlier than the cluster's marker", "post from inside a post handler",
		"arm while armed", "arm while disarmed and still queued", "arm after firing"} {
		if seen[k] < 1000 {
			t.Errorf("%s: drawn %d times, want at least 1000", k, seen[k])
		}
	}
}
