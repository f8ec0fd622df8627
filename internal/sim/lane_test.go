package sim

import (
	"fmt"
	"testing"
)

// A lane that never empties stops allocating once its ring covers its
// depth, and lets go of each payload as it fires or moves to a grown ring:
// the ring is reused in place, never grown by a flow that keeps a window
// queued. A lane that holds one entry at a time never allocates a ring.
func TestLaneAllocFree(t *testing.T) {
	const depth = 64
	e := NewEngine()
	ran := 0
	var l Lane
	l.Init(e, func(count, _ any, n int) { *count.(*int) += n }, &ran)
	payload := new(int)
	for i := 0; i < depth; i++ {
		l.Post(Time(i), payload, 1)
	}
	if n := testing.AllocsPerRun(10_000, func() {
		e.Step()
		l.Post(e.Now()+depth, payload, 1)
	}); n != 0 {
		t.Errorf("lane post and step: %v allocations, want 0", n)
	}
	if ran != 10_001 || l.count != depth || len(l.ring) != depth {
		t.Errorf("%d ran, %d queued in a ring of %d; want %d, %d, %d", ran, l.count, len(l.ring), 10_001, depth, depth)
	}
	if e.slab != nil || len(e.queue) != 1 {
		t.Errorf("an in-order lane made Post events (slab %d) or %d queue entries, want none and 1", len(e.slab), len(e.queue))
	}
	var one Lane
	one.Init(e, func(count, _ any, n int) { *count.(*int) += n }, &ran)
	if n := testing.AllocsPerRun(100, func() {
		one.Post(e.Now()+1, payload, 1)
		e.Run(0)
	}); n != 0 || len(one.ring) != 1 {
		t.Errorf("a lane holding one entry at a time: %v allocations, a ring of %d; want 0, 1", n, len(one.ring))
	}
	e.Run(0)
	for i, ent := range append(l.ring, l.first[0]) {
		if ent.payload != nil {
			t.Fatalf("ring slot %d still holds a payload after the lane drained", i)
		}
	}
}

// Pending counts each lane entry, in order or sent to Post from behind the
// tail, as the one event it stands for, and a cancelled event as none.
func TestPendingCountsLaneEntries(t *testing.T) {
	e := NewEngine()
	var order []int
	var l Lane
	l.Init(e, func(_, _ any, n int) { order = append(order, n) }, nil)
	l.Post(10, nil, 10)
	l.Post(20, nil, 20)
	l.Post(20, nil, 21)
	l.Post(15, nil, 15) // behind the tail: an Engine.Post
	e.At(5, func() { order = append(order, 5) })
	e.At(7, func() {}).Cancel()
	if got := e.Pending(); got != 5 {
		t.Errorf("Pending = %d, want 5", got)
	}
	if len(e.queue) != 4 {
		t.Errorf("%d queue entries, want 4: the lane's head, the posted event and the two At events", len(e.queue))
	}
	for want := 5; want > 0; want-- {
		e.Step()
		if got := e.Pending(); got != want-1 {
			t.Errorf("after %d steps Pending = %d, want %d", 6-want, got, want-1)
		}
	}
	if e.Step() || len(e.queue) != 0 || l.ev.pos != 0 {
		t.Errorf("drained engine: %d queued, lane queued at %d; want none", len(e.queue), l.ev.pos)
	}
	if want := []int{5, 10, 15, 20, 21}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("ran %v, want %v", order, want)
	}
}
