package sim

import "testing"

func TestClusterInterleavesByTime(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	var order []string
	a.At(10, func() { order = append(order, "a10") })
	b.At(5, func() { order = append(order, "b5") })
	a.At(20, func() { order = append(order, "a20") })
	b.At(15, func() { order = append(order, "b15") })
	c := NewCluster(a, b)
	n := c.Run(0)
	if n != 4 {
		t.Fatalf("ran %d", n)
	}
	want := []string{"b5", "a10", "b15", "a20"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestClusterCrossScheduling(t *testing.T) {
	// Ping-pong: machine A sends to B with 3ns wire delay; B replies.
	a, b := NewEngine(), NewEngine()
	c := NewCluster(a, b)
	var gotReplyAt Time
	a.At(0, func() {
		a.Clock.Advance(2) // A's send cost
		sendAt := a.Now()
		b.At(sendAt.Add(3), func() { // wire delay
			b.Clock.Advance(4) // B's processing
			replyAt := b.Now()
			a.At(replyAt.Add(3), func() {
				gotReplyAt = a.Now()
			})
		})
	})
	c.Run(0)
	// 2 (A send) + 3 (wire) + 4 (B proc) + 3 (wire) = 12.
	if gotReplyAt != 12 {
		t.Errorf("reply at %v, want 12", gotReplyAt)
	}
	if b.Now() != 9 {
		t.Errorf("B clock = %v, want 9", b.Now())
	}
}

func TestClusterDeadline(t *testing.T) {
	a := NewEngine()
	ran := 0
	a.At(10, func() { ran++ })
	a.At(100, func() { ran++ })
	c := NewCluster(a)
	c.Run(50)
	if ran != 1 {
		t.Errorf("ran %d, want 1", ran)
	}
}

func TestClusterRunUntil(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	count := 0
	a.At(10, func() { count++ })
	b.At(20, func() { count++ })
	a.At(30, func() { count++ })
	c := NewCluster(a, b)
	if !c.RunUntil(func() bool { return count == 2 }, 0) {
		t.Fatal("RunUntil failed")
	}
	if count != 2 {
		t.Errorf("count = %d", count)
	}
}

func TestNextEventTimeSkipsCancelled(t *testing.T) {
	e := NewEngine()
	ev1 := e.At(10, func() {})
	e.At(20, func() {})
	ev1.Cancel()
	at, ok := e.NextEventTime()
	if !ok || at != 20 {
		t.Errorf("NextEventTime = %v,%v want 20,true", at, ok)
	}
	e2 := NewEngine()
	ev := e2.At(5, func() {})
	ev.Cancel()
	if _, ok := e2.NextEventTime(); ok {
		t.Error("all-cancelled queue reported a next event")
	}
}

func TestNextEventTimeManyCancelled(t *testing.T) {
	e := NewEngine()
	var evs []*Event
	for i := 0; i < 100; i++ {
		evs = append(evs, e.At(Time(i), func() {}))
	}
	for i := 0; i < 99; i++ {
		evs[i].Cancel()
	}
	at, ok := e.NextEventTime()
	if !ok || at != 99 {
		t.Errorf("NextEventTime = %v,%v", at, ok)
	}
	ran := 0
	e.Run(0)
	_ = ran
	if e.Now() != 99 {
		t.Errorf("clock = %v", e.Now())
	}
}

// Cancelled-head discard across a multi-engine cluster: NextEventTime must
// skip (and physically pop) cancelled heads on every engine so the
// conservative scheduler picks the true global minimum, and the discarded
// events must be marked off-heap.
func TestClusterCancelledHeadsAcrossEngines(t *testing.T) {
	a, b, c := NewEngine(), NewEngine(), NewEngine()
	var order []string
	// a's earliest two events are cancelled; its first live event is at 30.
	ca1 := a.At(1, func() { order = append(order, "a1") })
	ca2 := a.At(2, func() { order = append(order, "a2") })
	a.At(30, func() { order = append(order, "a30") })
	// b's head is cancelled; live at 10.
	cb := b.At(3, func() { order = append(order, "b3") })
	b.At(10, func() { order = append(order, "b10") })
	// c is entirely cancelled.
	cc := c.At(4, func() { order = append(order, "c4") })
	for _, ev := range []*Event{ca1, ca2, cb, cc} {
		ev.Cancel()
	}

	// NextEventTime on each engine reports the earliest live event and
	// discards the cancelled heads as a side effect.
	if at, ok := a.NextEventTime(); !ok || at != 30 {
		t.Fatalf("a.NextEventTime = %v,%v want 30,true", at, ok)
	}
	if at, ok := b.NextEventTime(); !ok || at != 10 {
		t.Fatalf("b.NextEventTime = %v,%v want 10,true", at, ok)
	}
	if _, ok := c.NextEventTime(); ok {
		t.Fatal("all-cancelled engine reported a next event")
	}
	n := NewCluster(a, b, c).Run(0)
	if n != 2 {
		t.Fatalf("cluster ran %d events, want 2", n)
	}
	if len(order) != 2 || order[0] != "b10" || order[1] != "a30" {
		t.Fatalf("order = %v, want [b10 a30]", order)
	}
}

// A head cancelled between scheduling and stepping must not stall Run: the
// cluster's next() keeps discarding until the queues drain.
func TestClusterCancelDuringRun(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	var later *Event
	ran := false
	a.At(5, func() { later.Cancel() })
	later = b.At(10, func() { ran = true })
	b.At(20, func() {})
	NewCluster(a, b).Run(0)
	if ran {
		t.Error("cancelled event ran")
	}
	if b.Now() != 20 {
		t.Errorf("b clock = %v, want 20", b.Now())
	}
}

func TestClusterEmpty(t *testing.T) {
	c := NewCluster()
	if c.Step() {
		t.Error("empty cluster stepped")
	}
	if c.Run(0) != 0 {
		t.Error("empty cluster ran events")
	}
}
