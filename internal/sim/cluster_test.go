package sim

import (
	"math/bits"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

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

// An engine in a cluster may be stepped directly, as the strand scheduler
// and Machine.Run do: the cluster's next choice still follows the engine's
// real head, which only moved later.
func TestClusterMemberSteppedDirectly(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	c := NewCluster(a, b)
	var order []int // a's events by their time, b's as 20, the late one as 100
	for _, at := range []Time{1, 2, 3} {
		at := at
		a.At(at, func() { order = append(order, int(at)) })
	}
	b.At(2, func() { order = append(order, 20) })
	a.Step()
	a.Step() // a's head is now 3, behind b's
	if e, at := c.next(); e != b || at != 2 {
		t.Fatalf("next is not b at 2 (at %v, a chosen: %v)", at, e == a)
	}
	a.Run(0) // and now a is drained behind the cluster's back
	a.At(1, func() { order = append(order, 100) })
	c.Run(0)
	want := []int{1, 2, 3, 20, 100}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// Add indexes what the engine already has queued (every vnet build adds
// engines whose machines have armed timers).
func TestClusterAddEngineWithQueuedEvents(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	ran := 0
	a.At(7, func() { ran++ })
	b.At(5, func() { ran++ }).Cancel() // a cancelled head is indexed too
	b.At(9, func() { ran++ })
	c := NewCluster()
	c.Add(a)
	c.Add(b)
	c.Add(a) // already a member: nothing changes
	if len(c.Engines()) != 2 {
		t.Fatalf("%d engines, want 2", len(c.Engines()))
	}
	if e, at := c.next(); e != a || at != 7 {
		t.Fatalf("next at %v, want a at 7", at)
	}
	if n := c.Run(0); n != 2 || ran != 2 {
		t.Fatalf("ran %d events (counted %d), want 2", n, ran)
	}
}

// Adding an engine that belongs to another cluster moves it: the old
// cluster forgets it, renumbers the engines behind it, and keeps stepping
// them in the same order; the new one owns it and its queued events.
func TestClusterAddMovesEngineBetweenClusters(t *testing.T) {
	engines := make([]*Engine, 5)
	var order []int
	for i := range engines {
		i := i
		engines[i] = NewEngine()
		engines[i].At(10, func() { order = append(order, i) })
	}
	old := NewCluster(engines...)
	moved := engines[1]
	fresh := NewCluster(moved)
	if got := old.Engines(); len(got) != 4 || got[0] != engines[0] || got[1] != engines[2] || got[3] != engines[4] {
		t.Fatalf("old cluster kept %d engines, or in the wrong order", len(got))
	}
	// An event scheduled after the move goes to the new owner only.
	moved.At(5, func() { order = append(order, -1) })
	if n := old.Run(0); n != 4 {
		t.Fatalf("old cluster ran %d events, want 4", n)
	}
	if moved.Pending() != 2 {
		t.Fatalf("old cluster touched the moved engine: %d pending, want 2", moved.Pending())
	}
	if n := fresh.Run(0); n != 2 {
		t.Fatalf("new cluster ran %d events, want 2", n)
	}
	want := []int{0, 2, 3, 4, -1, 1}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// ticking returns a cluster of m engines with one self-rescheduling event
// each, the workload of benchmark/'s sim.cluster.step_ns probes.
func ticking(m int) *Cluster {
	c := NewCluster()
	for i := 0; i < m; i++ {
		e, period := NewEngine(), Duration(1000+i)
		var tick func()
		tick = func() { e.After(period, tick) }
		e.After(period, tick)
		c.Add(e)
	}
	return c
}

// Choosing the next engine must not cost O(engines): a step of a 512-engine
// cluster may cost at most 3x a step of an 8-engine one (the linear scan
// measured 16-19x). Both are timed in this run, interleaved, and the
// minimum of each is compared, so host speed and load cancel out.
func TestClusterStepCostNearFlatInEngines(t *testing.T) {
	const steps, rounds = 5_000, 21
	small, large := ticking(8), ticking(512)
	timeSteps := func(c *Cluster) time.Duration {
		start := time.Now()
		for i := 0; i < steps; i++ {
			c.Step()
		}
		return time.Since(start)
	}
	timeSteps(small)
	timeSteps(large)
	minSmall, minLarge := time.Duration(1<<62), time.Duration(1<<62)
	for r := 0; r < rounds; r++ {
		minSmall = min(minSmall, timeSteps(small))
		minLarge = min(minLarge, timeSteps(large))
	}
	ratio := float64(minLarge) / float64(minSmall)
	t.Logf("%d steps: 8 engines %v, 512 engines %v, ratio %.2f", steps, minSmall, minLarge, ratio)
	if ratio > 3 {
		t.Errorf("a step at 512 engines costs %.2fx a step at 8, want <= 3x", ratio)
	}
}

// Cancel must let go of the callback at once: a cancelled retransmit timer
// or socket deadline otherwise keeps its connection reachable until the
// queue gets to it, an RTO or a TIME_WAIT of virtual time later.
func TestCancelReleasesClosure(t *testing.T) {
	const timers, each = 10_000, 4 << 10
	heapAlloc := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	e := NewEngine()
	before := heapAlloc()
	events := make([]*Event, timers)
	for i := range events {
		buf := make([]byte, each)
		events[i] = e.After(Duration(Second)*Duration(3600+i), func() { buf[0]++ })
	}
	if armed := heapAlloc(); armed < before+timers*each {
		t.Fatalf("armed timers hold %d bytes, want at least %d", armed-before, timers*each)
	}
	for _, ev := range events {
		ev.Cancel()
	}
	after := heapAlloc()
	if len(e.queue) != timers || e.Pending() != 0 {
		t.Fatalf("%d events queued, %d pending; want all %d still queued and none pending", len(e.queue), e.Pending(), timers)
	}
	// What may remain is the events themselves and the queue's backing
	// array, a few dozen bytes per timer, not the 4 KiB each one captured.
	if limit := before + timers*128; after > limit {
		t.Errorf("cancelled timers still hold %d bytes, want under %d", after-before, limit-before)
	}
	runtime.KeepAlive(events)
}

// A Post event must let go of its operands as it fires: the engine keeps
// the event itself for reuse, and a payload left in it would stay reachable
// until that event's next Post.
func TestPostReleasesOperands(t *testing.T) {
	const posts, each = 10_000, 4 << 10
	heapAlloc := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	e := NewEngine()
	before := heapAlloc()
	ran := 0
	for i := 0; i < posts; i++ {
		e.Post(Time(i), func(count, payload any, n int) { *count.(*int) += n }, &ran, new([each]byte), 1)
	}
	if queued := heapAlloc(); queued < before+posts*each {
		t.Fatalf("queued posts hold %d bytes, want at least %d", queued-before, posts*each)
	}
	e.Run(0)
	after := heapAlloc()
	if ran != posts || len(e.free) != posts {
		t.Fatalf("%d handlers ran and %d events are free; want %d of each", ran, len(e.free), posts)
	}
	// What may remain is the recycled events (96 B and a 16 B bound method
	// each), the free list and the queue's backing array, not the 4 KiB each
	// one carried.
	if limit := before + posts*192; after > limit {
		t.Errorf("fired posts still hold %d bytes, want under %d", after-before, limit-before)
	}
	runtime.KeepAlive(e)
}

// A fresh engine carves posted events from slabs of 4, 8, ... 64 events, so
// posting n at once costs O(log n + n/64) allocations, not one or two an
// event: the slabs, the doublings of the queue and of the free list the
// events join as they fire, and the engine itself. The mark that sends Step
// through the posted event rides in Event's padding, which matters because
// every TCP connection embeds an Event.
func TestPostGrowsBySlab(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 32 {
		t.Errorf("Event is %d bytes, want 32", got)
	}
	const posts = 1000
	ran := 0
	allocs := testing.AllocsPerRun(10, func() {
		e := NewEngine()
		for i := 0; i < posts; i++ {
			e.Post(Time(i), func(count, _ any, n int) { *count.(*int) += n }, &ran, nil, 1)
		}
		e.Run(0)
	})
	if ran != 11*posts {
		t.Fatalf("%d handlers ran, want %d", ran, 11*posts)
	}
	// 4+8+16+32 events in the first four slabs, 64 in each after; up to
	// bits.Len(posts)+1 doublings each for the queue and the free list; the
	// engine and its clock.
	slabs := 4 + (posts-60+63)/64
	if limit := slabs + 2*(bits.Len(posts)+1) + 2; allocs > float64(limit) {
		t.Errorf("posting %d events on a fresh engine allocated %v times, want at most %d", posts, allocs, limit)
	}
	t.Logf("%d posts: %v allocations", posts, allocs)
}

// Post allocates nothing once the free list covers the queue's depth, and
// neither does arming, disarming and re-arming an owner-held event.
func TestPostAndArmAllocFree(t *testing.T) {
	e := NewEngine()
	var hops int
	var hop func(engine, count any, left int)
	hop = func(engine, count any, left int) {
		*count.(*int)++
		if left > 0 {
			engine.(*Engine).Post(engine.(*Engine).Now()+1, hop, engine, count, left-1)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		e.Post(e.Now(), hop, e, &hops, 3)
		e.Post(e.Now(), hop, e, &hops, 3)
		e.Run(0)
	}); n != 0 {
		t.Errorf("Post: %v allocations a run, want 0", n)
	}
	if hops != 101*8 {
		t.Errorf("%d hops ran, want %d", hops, 101*8)
	}
	var timer Event
	fired := 0
	timer.Do = func() { fired++ }
	if n := testing.AllocsPerRun(100, func() {
		e.Arm(&timer, 5)
		timer.Disarm()
		e.Arm(&timer, 7)
		e.Arm(&timer, 3)
		e.Run(0)
	}); n != 0 {
		t.Errorf("Arm: %v allocations a run, want 0", n)
	}
	if fired != 101 {
		t.Errorf("timer fired %d times, want %d", fired, 101)
	}
}

// Cancel is for events At returned and drops the callback; Disarm is for
// owner-held events and keeps it, so the next Arm fires it. Either way the
// stopped event stays queued, and Pending and NextEventTime read as if it
// were gone.
func TestDisarmKeepsCallbackCancelDropsIt(t *testing.T) {
	e := NewEngine()
	at := e.At(10, func() {})
	at.Cancel()
	if at.Do != nil || !at.Cancelled() {
		t.Errorf("cancelled At event: Do kept = %v, Cancelled = %v", at.Do != nil, at.Cancelled())
	}
	var timer Event
	fired := 0
	timer.Do = func() { fired++ }
	if timer.Armed() {
		t.Error("an event never armed reads armed")
	}
	e.Arm(&timer, 20)
	live := e.At(30, func() {})
	if !timer.Armed() || e.Pending() != 2 {
		t.Fatalf("armed = %v, pending = %d; want true, 2", timer.Armed(), e.Pending())
	}
	timer.Disarm()
	if timer.Do == nil || timer.Armed() || !timer.Cancelled() {
		t.Errorf("disarmed timer: Do kept = %v, Armed = %v, Cancelled = %v", timer.Do != nil, timer.Armed(), timer.Cancelled())
	}
	if len(e.queue) != 3 || e.Pending() != 1 {
		t.Errorf("%d queued, %d pending; want 3, 1", len(e.queue), e.Pending())
	}
	if next, ok := e.NextEventTime(); !ok || next != live.At {
		t.Errorf("NextEventTime = %v, %v; want %v", next, ok, live.At)
	}
	// NextEventTime discarded the two stopped heads; arming again must cope
	// with an event that is no longer queued, and one that still is.
	e.Arm(&timer, 40)
	e.Arm(&timer, 5)
	if len(e.queue) != 2 || e.Pending() != 2 {
		t.Errorf("%d queued, %d pending after re-arming; want 2, 2", len(e.queue), e.Pending())
	}
	e.Run(0)
	if fired != 1 || e.Now() != 30 || timer.Armed() {
		t.Errorf("fired %d times, clock %v, armed %v; want 1, 30, false", fired, e.Now(), timer.Armed())
	}
}
