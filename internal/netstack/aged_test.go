package netstack

import (
	"testing"

	"spin/internal/sim"
)

// queueBound is the most slots compaction lets the arrival queue hold for
// live entries: twice them plus the slack, plus the slot put appends.
func queueBound(live int) int { return 2*live + 9 }

// TestAgedTableChurnAllocFree: a put and its delete — a SYN and its final
// ACK — allocate nothing once the table has warmed, and after 10⁵ of them
// the arrival queue is bounded by the live entries, not by every entry that
// passed through. Long-lived entries at the front keep the churn behind them
// from ever reaching the front, so only compaction can reclaim its slots.
func TestAgedTableChurnAllocFree(t *testing.T) {
	tab := agedTable[connKey, synEntry]{ttl: synTTL, max: MaxHalfOpen}
	const live = 16
	for k := connKey(0); k < live; k++ {
		tab.put(k, synEntry{}, 0)
	}
	next, now := connKey(live), sim.Time(0)
	cycle := func() {
		now++
		tab.put(next, synEntry{iss: serverISS}, now)
		tab.delete(next)
		next++
	}
	for i := 0; i < 1000; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("put+delete allocates %.2f times, want 0", allocs)
	}
	for i := 0; i < 100_000; i++ {
		cycle()
	}
	if q := len(tab.queue); tab.len() != live || q > queueBound(live) {
		t.Fatalf("%d live entries, %d queued; want %d and at most %d", tab.len(), q, live, queueBound(live))
	}
	if tab.evicted != 0 {
		t.Fatalf("evicted %d, want 0", tab.evicted)
	}
}

// TestAgedTableEvictionOnlyChurnBounded: when entries leave only by
// eviction — a flood of puts at the cap, or puts spaced so each ages one
// out while the table never empties — no slot goes stale, and only the
// dead prefix before the front grows. The queue must stay bounded by the
// live entries all the same, and a warmed table must not allocate per put.
func TestAgedTableEvictionOnlyChurnBounded(t *testing.T) {
	t.Run("flood at the cap", func(t *testing.T) {
		tab := agedTable[connKey, synEntry]{ttl: synTTL, max: MaxHalfOpen}
		next := connKey(0)
		put := func() { tab.put(next, synEntry{}, 0); next++ }
		const flood = 10 * MaxHalfOpen
		for i := 0; i < flood; i++ {
			put()
		}
		if q := len(tab.queue); tab.len() != MaxHalfOpen || q > queueBound(MaxHalfOpen) {
			t.Fatalf("%d live entries, %d queued; want %d and at most %d",
				tab.len(), q, MaxHalfOpen, queueBound(MaxHalfOpen))
		}
		if want := int64(flood - MaxHalfOpen); tab.evicted != want {
			t.Fatalf("evicted %d, want %d", tab.evicted, want)
		}
		if allocs := testing.AllocsPerRun(1000, put); allocs != 0 {
			t.Errorf("put at the cap allocates %.2f times, want 0", allocs)
		}
	})

	t.Run("TTL expiry that never empties the table", func(t *testing.T) {
		const ttl = 64
		tab := agedTable[connKey, synEntry]{ttl: ttl, max: MaxHalfOpen}
		next, now := connKey(0), sim.Time(0)
		put := func() { now++; tab.put(next, synEntry{}, now); next++ }
		for i := 0; i < 100_000; i++ {
			put()
		}
		// Entries from now-ttl to now are live: ttl+1 of them.
		if q := len(tab.queue); tab.len() != ttl+1 || q > queueBound(ttl+1) {
			t.Fatalf("%d live entries, %d queued; want %d and at most %d", tab.len(), q, ttl+1, queueBound(ttl+1))
		}
		if want := int64(100_000 - (ttl + 1)); tab.evicted != want {
			t.Fatalf("evicted %d, want %d", tab.evicted, want)
		}
		if allocs := testing.AllocsPerRun(1000, put); allocs != 0 {
			t.Errorf("put past the TTL allocates %.2f times, want 0", allocs)
		}
	})
}
