// Package lb is the resilient service-discovery and load-balancing layer:
// a consistent-hash ring over named backends, active health checks probing
// each backend over the (virtual) network, passive outlier detection
// feeding per-backend circuit breakers, and a ResilientDialer that wraps
// the socket layer's Dialer with per-attempt timeouts, capped
// exponential backoff with seeded jitter, a retry budget, and
// next-backend failover.
//
// Everything runs in virtual time on the owning machine's engine: probe
// intervals, breaker open timers, and backoff sleeps are engine events, and
// every probabilistic choice (vnode placement, jitter, request keys) comes
// from seeded generators — so a topology run that includes a balancer
// replays byte-identically, failures included.
//
// Ownership: a balancer belongs to its client machine. Balancer, Breaker
// and ResilientDialer state is read and written only by whoever steps that
// machine's engine (inside engine callbacks, or on the netstack.Driver's
// loop via Driver.Run), so it is plain fields.
package lb

import (
	"sort"

	"spin/internal/sim"
)

// ringPoint is one vnode on the ring: a hash position owned by a backend
// (an index into Ring.members).
type ringPoint struct {
	hash    uint64
	backend int32
}

// Ring is a seeded consistent-hash ring. Membership changes rebuild it
// whole, so Pick on the hot path is a binary search with no allocation.
type Ring struct {
	seed   uint64
	vnodes int
	// points are the vnodes sorted by hash, and members the names they
	// index, sorted.
	points  []ringPoint
	members []string
}

// DefaultVnodes is the per-member vnode count: enough that removing one of
// a handful of backends moves only its own ~1/N share of the keyspace.
const DefaultVnodes = 64

// NewRing builds an empty ring. Vnode positions are a pure function of
// (seed, member name, vnode index), so two rings with the same seed and
// members route identically.
func NewRing(seed uint64, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Ring{seed: seed, vnodes: vnodes}
}

// SetMembers rebuilds the ring around the given member set (order
// irrelevant; names are sorted internally so the ring is canonical).
func (r *Ring) SetMembers(names []string) {
	r.members = append([]string(nil), names...)
	sort.Strings(r.members)
	r.points = r.points[:0]
	for i, name := range r.members {
		base := sim.Mix64(r.seed ^ sim.HashString(name))
		for v := 0; v < r.vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:    sim.Mix64(base ^ uint64(v)*0x9E3779B97F4A7C15),
				backend: int32(i),
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
}

// Members returns the current member names, sorted (a slice SetMembers
// made and never changes; callers must not mutate it).
func (r *Ring) Members() []string { return r.members }

// pickIdx finds the index of the first vnode at or clockwise of key.
func (r *Ring) pickIdx(key uint64) int {
	pts := r.points
	lo, hi := 0, len(pts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pts[mid].hash < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(pts) {
		return 0 // wrap
	}
	return lo
}

// Pick routes key to a member: the owner of the first vnode clockwise of
// the key. Allocation-free; returns "" on an empty ring.
func (r *Ring) Pick(key uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.members[r.points[r.pickIdx(key)].backend]
}

// Sequence fills buf with the distinct members encountered walking the
// ring clockwise from key — the failover order for that key (the first
// entry is Pick's answer). It returns how many it wrote (min of ring size
// and len(buf)); allocation-free.
func (r *Ring) Sequence(key uint64, buf []string) int {
	if len(r.points) == 0 || len(buf) == 0 {
		return 0
	}
	n := 0
	start := r.pickIdx(key)
	for i := 0; i < len(r.points) && n < len(buf) && n < len(r.members); i++ {
		name := r.members[r.points[(start+i)%len(r.points)].backend]
		dup := false
		for j := 0; j < n; j++ {
			if buf[j] == name {
				dup = true
				break
			}
		}
		if !dup {
			buf[n] = name
			n++
		}
	}
	return n
}
