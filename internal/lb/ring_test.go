package lb

import (
	"fmt"
	"testing"

	"spin/internal/sim"
)

func ringMembers(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("b%d", i)
	}
	return names
}

// Same seed, same members => identical routing; a different seed moves it.
func TestRingDeterministicSeeded(t *testing.T) {
	a := NewRing(42, 0)
	b := NewRing(42, 0)
	c := NewRing(43, 0)
	for _, r := range []*Ring{a, b, c} {
		r.SetMembers(ringMembers(5))
	}
	diverged := false
	for k := uint64(0); k < 1000; k++ {
		key := sim.Mix64(k)
		if a.Pick(key) != b.Pick(key) {
			t.Fatalf("same seed diverged at key %d", k)
		}
		if a.Pick(key) != c.Pick(key) {
			diverged = true
		}
	}
	if !diverged {
		t.Error("seeds 42 and 43 route 1000 keys identically (seed ignored?)")
	}
}

// Every member owns a reasonable share of the keyspace.
func TestRingDistribution(t *testing.T) {
	r := NewRing(7, 0)
	r.SetMembers(ringMembers(5))
	counts := make(map[string]int)
	const keys = 10000
	for k := 0; k < keys; k++ {
		counts[r.Pick(sim.Mix64(uint64(k)))]++
	}
	for _, m := range ringMembers(5) {
		share := float64(counts[m]) / keys
		if share < 0.08 || share > 0.40 {
			t.Errorf("member %s owns %.1f%% of the keyspace, want roughly 20%%", m, share*100)
		}
	}
}

// Consistent hashing's point: removing one member remaps only that
// member's keys; everyone else's routing is untouched.
func TestRingMinimalDisruption(t *testing.T) {
	r := NewRing(11, 0)
	r.SetMembers(ringMembers(5))
	const keys = 5000
	before := make([]string, keys)
	for k := 0; k < keys; k++ {
		before[k] = r.Pick(sim.Mix64(uint64(k)))
	}
	r.SetMembers(ringMembers(5)[:4]) // drop b4
	moved := 0
	for k := 0; k < keys; k++ {
		after := r.Pick(sim.Mix64(uint64(k)))
		if before[k] == "b4" {
			if after == "b4" {
				t.Fatalf("key %d still routes to the removed member", k)
			}
			continue
		}
		if after != before[k] {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("%d keys not owned by the removed member changed owner (want 0: consistent hashing)", moved)
	}
}

// Sequence yields every member exactly once, starting with Pick's answer.
func TestRingSequence(t *testing.T) {
	r := NewRing(3, 0)
	r.SetMembers(ringMembers(4))
	var buf [8]string
	for k := uint64(0); k < 200; k++ {
		key := sim.Mix64(k)
		n := r.Sequence(key, buf[:])
		if n != 4 {
			t.Fatalf("Sequence returned %d members, want 4", n)
		}
		if buf[0] != r.Pick(key) {
			t.Fatalf("Sequence[0] = %s, Pick = %s", buf[0], r.Pick(key))
		}
		seen := make(map[string]bool)
		for i := 0; i < n; i++ {
			if seen[buf[i]] {
				t.Fatalf("duplicate %s in sequence", buf[i])
			}
			seen[buf[i]] = true
		}
	}
	// Empty ring and empty buffer degrade to zero.
	r.SetMembers(nil)
	if r.Pick(1) != "" || r.Sequence(1, buf[:]) != 0 {
		t.Error("empty ring must Pick nothing")
	}
}

// The hot path allocates nothing.
func TestRingPickAllocFree(t *testing.T) {
	r := NewRing(9, 0)
	r.SetMembers(ringMembers(10))
	var buf [4]string
	key := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		key++
		_ = r.Pick(sim.Mix64(key))
		_ = r.Sequence(sim.Mix64(key), buf[:])
	})
	if allocs != 0 {
		t.Errorf("Pick+Sequence allocate %.1f/op, want 0", allocs)
	}
}
