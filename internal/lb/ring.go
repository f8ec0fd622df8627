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
// Concurrency discipline: Balancer and Breaker mutate state only in engine
// context (inside engine callbacks, or on the netstack.Driver's loop via
// Driver.Run). Breaker states are additionally published through atomics so
// report renderers on other goroutines read safely.
package lb

import (
	"sort"
	"sync/atomic"

	"spin/internal/sim"
)

// ringPoint is one vnode on the ring: a hash position owned by a backend
// (an index into ringState.members).
type ringPoint struct {
	hash    uint64
	backend int32
}

// ringState is one immutable ring snapshot: vnode points sorted by hash,
// plus the member names they index.
type ringState struct {
	points  []ringPoint
	members []string
}

// Ring is a seeded consistent-hash ring. Membership changes rebuild an
// immutable snapshot behind an atomic pointer (the dispatcher's
// copy-on-write discipline), so Pick on the hot path is a lock-free load
// plus a binary search — no locks, no allocation.
type Ring struct {
	seed   uint64
	vnodes int
	state  atomic.Pointer[ringState]
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
	r := &Ring{seed: seed, vnodes: vnodes}
	r.state.Store(&ringState{})
	return r
}

// SetMembers rebuilds the ring around the given member set (order
// irrelevant; names are sorted internally so the snapshot is canonical).
func (r *Ring) SetMembers(names []string) {
	members := append([]string(nil), names...)
	sort.Strings(members)
	st := &ringState{
		members: members,
		points:  make([]ringPoint, 0, len(members)*r.vnodes),
	}
	for i, name := range members {
		base := sim.Mix64(r.seed ^ sim.HashString(name))
		for v := 0; v < r.vnodes; v++ {
			st.points = append(st.points, ringPoint{
				hash:    sim.Mix64(base ^ uint64(v)*0x9E3779B97F4A7C15),
				backend: int32(i),
			})
		}
	}
	sort.Slice(st.points, func(a, b int) bool { return st.points[a].hash < st.points[b].hash })
	r.state.Store(st)
}

// Members returns the current member names, sorted (the snapshot's own
// slice; callers must not mutate it).
func (r *Ring) Members() []string { return r.state.Load().members }

// pickIdx finds the index of the first vnode at or clockwise of key.
func (st *ringState) pickIdx(key uint64) int {
	pts := st.points
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
	st := r.state.Load()
	if len(st.points) == 0 {
		return ""
	}
	return st.members[st.points[st.pickIdx(key)].backend]
}

// Sequence fills buf with the distinct members encountered walking the
// ring clockwise from key — the failover order for that key (the first
// entry is Pick's answer). It returns how many it wrote (min of ring size
// and len(buf)); allocation-free.
func (r *Ring) Sequence(key uint64, buf []string) int {
	st := r.state.Load()
	if len(st.points) == 0 || len(buf) == 0 {
		return 0
	}
	n := 0
	start := st.pickIdx(key)
	for i := 0; i < len(st.points) && n < len(buf) && n < len(st.members); i++ {
		name := st.members[st.points[(start+i)%len(st.points)].backend]
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
