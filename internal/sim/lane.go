package sim

// Lane is an ordered queue of posts from one source: the frames a link
// delivers to one NIC or switch port, the packets one NIC hands its receive
// queue, a TCP module's TIME_WAIT teardowns. While posts arrive in time
// order, as nearly all do, it behaves as a FIFO. Only the lane's earliest
// entry waits in the engine's queue, under the (At, seq) key it would have
// had as an event of its own; when it fires, the next entry takes its place
// under that entry's stored key. So the engine holds one queue entry per
// source where it would hold one per post, and the order events run in is
// the order At gives.
//
// A lane lives in the struct of the source it serves, made ready by Init,
// and is not copied after.
type Lane struct {
	ev   Event // the head entry's key; comes first, so Step can go from it to the lane
	e    *Engine
	fn   func(recv, payload any, n int)
	recv any
	// ring holds the entries in (at, seq) order from head, count of them; its
	// length is a power of two, and it doubles when full and never shrinks,
	// so a lane that never empties stops allocating at its peak. It starts
	// as first, so a lane that never holds two entries at once, a request
	// and its reply, allocates nothing.
	ring        []laneEntry
	head, count int
	first       [1]laneEntry
}

// laneEntry is one queued post: its key and its operands.
type laneEntry struct {
	at      Time
	seq     int64
	payload any
	n       int
}

// Init makes l an empty lane whose entries run fn(recv, payload, n) on e.
func (l *Lane) Init(e *Engine, fn func(recv, payload any, n int), recv any) {
	*l = Lane{e: e, fn: fn, recv: recv}
	l.ev.lane = true
	l.ring = l.first[:]
}

// Post schedules fn(recv, payload, n) to run at t, or now if t is in the
// past, with the seq the engine's next event would draw. That seq is the
// largest yet, so the entry goes after every entry at t or earlier: at the
// tail for a post in time order, or further in for one behind the tail (a
// reordered frame, a hook's extra delay), the later entries moving one slot
// toward the tail. An entry that lands at the head moves the lane up in the
// engine's queue.
func (l *Lane) Post(t Time, payload any, n int) {
	e := l.e
	t = max(t, e.Clock.Now())
	if l.count == len(l.ring) {
		l.grow()
	}
	mask := len(l.ring) - 1
	i := l.count
	for ; i > 0 && t < l.ring[(l.head+i-1)&mask].at; i-- {
		l.ring[(l.head+i)&mask] = l.ring[(l.head+i-1)&mask]
	}
	// Field by field: a composite literal is built on the stack and copied
	// in 16-byte moves that stall on its 8-byte stores.
	ent := &l.ring[(l.head+i)&mask]
	ent.at, ent.seq, ent.payload, ent.n = t, e.seq, payload, n
	l.count++
	if i == 0 {
		l.ev.At, l.ev.seq = t, e.seq
		e.enqueue(&l.ev)
	}
	e.seq++
}

// grow doubles the full ring (first, of one entry, becomes four), unwrapping
// it so the head is at index 0. The old ring is cleared: it may be first,
// which the lane keeps, and a payload left there would stay live as long as
// the lane.
func (l *Lane) grow() {
	ring := make([]laneEntry, max(2*len(l.ring), 4))
	n := copy(ring, l.ring[l.head:])
	copy(ring[n:], l.ring[:l.head])
	clear(l.ring)
	l.ring, l.head = ring, 0
}

// fire runs the lane's head entry, which is the engine's earliest event.
// Before calling fn it puts the next entry's stored key on the lane's event
// and sifts it down from the root (a later key, so the cluster's marker
// still bounds it), or takes the event out if the lane is now empty; fn may
// then Post to the lane again. The entry's operands are cleared, so the
// ring holds on to nothing that has run.
func (l *Lane) fire() {
	ent := &l.ring[l.head]
	payload, n := ent.payload, ent.n
	ent.payload = nil
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.count--
	if l.count > 0 {
		next := &l.ring[l.head]
		l.ev.At, l.ev.seq = next.at, next.seq
		l.e.queue.down(int(l.ev.pos) - 1)
	} else {
		l.e.queue.remove(int(l.ev.pos) - 1)
	}
	l.fn(l.recv, payload, n)
}
