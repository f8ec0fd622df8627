package netstack

import "spin/internal/sim"

// agedTable is a map whose entries age out, the one eviction policy of the
// TCP half-open table and the reassembly table: putting a new key first
// drops every entry older than ttl, then, at max entries, the oldest. The
// owner's lock guards it.
//
// Virtual time never runs backwards, so arrival order is age order, and both
// evictions pop the front of one arrival queue: O(1) amortised, never a scan
// of the map. A deleted entry leaves its queue slot behind, and an evicted
// one leaves a dead prefix before head; put skips stale slots at the front
// and compacts the whole queue once it holds more than twice the live
// entries, so the queue is bounded by what is live whether entries leave by
// delete or by eviction, and steady churn reuses its storage without
// allocating.
type agedTable[K comparable, V any] struct {
	ttl     sim.Duration
	max     int
	m       map[K]agedEntry[V]
	queue   []agedSlot[K] // arrival order from queue[head]
	head    int
	seq     uint64 // numbers puts, so a slot can tell its entry from a later one
	evicted int64  // by TTL or cap
}

type agedEntry[V any] struct {
	v   V
	seq uint64
}

type agedSlot[K comparable] struct {
	k   K
	at  sim.Time
	seq uint64
}

func (t *agedTable[K, V]) len() int { return len(t.m) }

func (t *agedTable[K, V]) get(k K) (V, bool) {
	e, ok := t.m[k]
	return e.v, ok
}

func (t *agedTable[K, V]) delete(k K) { delete(t.m, k) }

// put records k -> v as arriving at now, after making room: entries past
// the TTL go first, then, if the table is full, the oldest. Callers have
// seen k absent.
func (t *agedTable[K, V]) put(k K, v V, now sim.Time) {
	t.expire(now)
	if len(t.m) >= t.max {
		t.evictFront()
	}
	if t.m == nil {
		t.m = make(map[K]agedEntry[V])
	}
	t.seq++
	t.m[k] = agedEntry[V]{v: v, seq: t.seq}
	if len(t.queue) > 2*len(t.m)+8 {
		t.compact()
	}
	t.queue = append(t.queue, agedSlot[K]{k: k, at: now, seq: t.seq})
}

// expire drops every entry older than the TTL at now; one exactly ttl old
// stays.
func (t *agedTable[K, V]) expire(now sim.Time) {
	for t.skipDeleted() && now.Sub(t.queue[t.head].at) > t.ttl {
		t.evictFront()
	}
}

// evictFront drops the oldest entry, if there is one.
func (t *agedTable[K, V]) evictFront() {
	if t.skipDeleted() {
		delete(t.m, t.queue[t.head].k)
		t.head++
		t.evicted++
	}
}

// skipDeleted advances the front past slots whose entries are gone and
// reports whether a live one remains.
func (t *agedTable[K, V]) skipDeleted() bool {
	for ; t.head < len(t.queue); t.head++ {
		if s := t.queue[t.head]; t.m[s.k].seq == s.seq {
			return true
		}
	}
	t.queue, t.head = t.queue[:0], 0
	return false
}

// compact keeps only the slots of live entries, in order, in the queue's own
// storage.
func (t *agedTable[K, V]) compact() {
	live := t.queue[:0]
	for _, s := range t.queue[t.head:] {
		if t.m[s.k].seq == s.seq {
			live = append(live, s)
		}
	}
	t.queue, t.head = live, 0
}
