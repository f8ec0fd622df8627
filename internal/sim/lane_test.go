package sim

import (
	"fmt"
	"testing"
)

// A lane that never empties stops allocating once its ring covers its
// depth, and lets go of each payload as it fires or moves to a grown ring:
// the ring is reused in place, never grown by a flow that keeps a window
// queued, nor by posts that land behind its tail or before its head. A lane
// that holds one entry at a time never allocates a ring.
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
	// At the peak depth, one post after the tail, one behind it and one at
	// the current time, before the head or level with it, for every three
	// steps.
	if n := testing.AllocsPerRun(1_000, func() {
		e.Step()
		e.Step()
		e.Step()
		l.Post(e.Now()+3*depth, payload, 1)
		l.Post(e.Now()+depth, payload, 1)
		l.Post(e.Now(), payload, 1)
	}); n != 0 {
		t.Errorf("out-of-order lane posts and steps: %v allocations, want 0", n)
	}
	if ran != 13_004 || l.count != depth || len(l.ring) != depth || len(e.queue) != 1 {
		t.Errorf("%d ran, %d queued in a ring of %d, %d queue entries; want %d, %d, %d, 1",
			ran, l.count, len(l.ring), len(e.queue), 13_004, depth, depth)
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

// Pending counts each lane entry, in order or behind the tail, as the one
// event it stands for, and a cancelled event as none.
func TestPendingCountsLaneEntries(t *testing.T) {
	e := NewEngine()
	var order []int
	var l Lane
	l.Init(e, func(_, _ any, n int) { order = append(order, n) }, nil)
	l.Post(10, nil, 10)
	l.Post(20, nil, 20)
	l.Post(20, nil, 21)
	l.Post(15, nil, 15) // behind the tail: still one lane entry
	e.At(5, func() { order = append(order, 5) })
	e.At(7, func() {}).Cancel()
	if got := e.Pending(); got != 5 {
		t.Errorf("Pending = %d, want 5", got)
	}
	if len(e.queue) != 3 || l.count != 4 {
		t.Errorf("%d queue entries, %d lane entries; want 3 (the lane's head and the two At events), 4", len(e.queue), l.count)
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
