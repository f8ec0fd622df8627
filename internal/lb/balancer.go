package lb

import (
	"fmt"
	"sync/atomic"

	"spin/internal/metrics"
	"spin/internal/netstack"
	"spin/internal/sim"
)

// Config tunes a Balancer.
type Config struct {
	// Seed drives vnode placement, probe jitter and request keys; fixed
	// seed, fixed routing.
	Seed uint64
}

// healthInterval spaces active probes per backend, jittered by up to 1/8 so
// a fleet's probes don't self-synchronize; healthTimeout bounds one probe's
// connect to the backend's probePort.
const (
	healthInterval = 250 * sim.Millisecond
	healthTimeout  = 100 * sim.Millisecond
	probePort      = 80
)

// backend is one named service replica and its local health state.
type backend struct {
	name    string // ring member name
	host    string // DNS name probes and dials resolve
	breaker *Breaker

	probeTimer *sim.Event

	picks         atomic.Int64
	successes     atomic.Int64
	failures      atomic.Int64
	probes        atomic.Int64
	probeFailures atomic.Int64
}

// Balancer ties the ring to per-backend breakers: passive outlier
// detection (ReportFailure from the dialer) and active health checks both
// feed the breakers, and every breaker transition rebuilds the ring so
// only closed (healthy) backends receive traffic. All methods that mutate
// state must run in engine context (inside an engine callback, or on the
// socket Driver's loop via Driver.Run).
type Balancer struct {
	stack    *netstack.Stack
	resolver *netstack.Resolver
	engine   *sim.Engine
	clock    *sim.Clock
	rand     *sim.Rand

	ring     *Ring
	order    []string
	backends map[string]*backend

	healthOn bool

	ejections atomic.Int64
	// lastEjectAt / lastRejoinAt track ring convergence times for the
	// failover experiments (virtual ns as atomics for cross-goroutine
	// reads).
	lastEjectAt  atomic.Int64
	lastRejoinAt atomic.Int64
}

// NewBalancer builds a balancer on the client machine's stack and
// resolver. backends maps ring member names to the DNS hosts they dial
// (use AddBackend for the common name==host case). The ring starts with
// every backend in.
func NewBalancer(stack *netstack.Stack, resolver *netstack.Resolver, cfg Config) *Balancer {
	b := &Balancer{
		stack:    stack,
		resolver: resolver,
		engine:   stack.Engine(),
		clock:    stack.Clock(),
		rand:     sim.NewRand(cfg.Seed ^ 0x1ba1a9ce4),
		ring:     NewRing(cfg.Seed, DefaultVnodes),
		backends: make(map[string]*backend),
	}
	return b
}

// AddBackend registers a replica: name joins the ring, host (a DNS name;
// name itself if empty) is what probes and the dialer resolve.
func (b *Balancer) AddBackend(name, host string) {
	if host == "" {
		host = name
	}
	be := &backend{name: name, host: host}
	be.breaker = NewBreaker(b.engine)
	be.breaker.onChange = func(from, to BreakerState) { b.onBreaker(be, from, to) }
	b.backends[name] = be
	b.order = append(b.order, name)
	b.rebuild()
}

// Host returns the DNS name dialed for a ring member ("" if unknown).
func (b *Balancer) Host(name string) string {
	if be := b.backends[name]; be != nil {
		return be.host
	}
	return ""
}

// Members returns the ring's current (healthy) membership, sorted.
func (b *Balancer) Members() []string { return b.ring.Members() }

// Pick routes key to a healthy backend ("" when every breaker is open).
func (b *Balancer) Pick(key uint64) string {
	name := b.ring.Pick(key)
	if be := b.backends[name]; be != nil {
		be.picks.Add(1)
	}
	return name
}

// Sequence fills buf with key's failover order over healthy backends and
// returns the count (see Ring.Sequence). The first entry counts as a pick.
func (b *Balancer) Sequence(key uint64, buf []string) int {
	n := b.ring.Sequence(key, buf)
	if n > 0 {
		if be := b.backends[buf[0]]; be != nil {
			be.picks.Add(1)
		}
	}
	return n
}

// ReportSuccess feeds passive outlier detection: a request to name
// completed. Engine context.
func (b *Balancer) ReportSuccess(name string) {
	if be := b.backends[name]; be != nil {
		be.successes.Add(1)
		be.breaker.Success()
	}
}

// ReportFailure feeds passive outlier detection: a request to name failed
// (dial timeout, reset, withdrawn name). Engine context.
func (b *Balancer) ReportFailure(name string) {
	if be := b.backends[name]; be != nil {
		be.failures.Add(1)
		be.breaker.Fail()
	}
}

// Eject opens name's breaker immediately (e.g. on an authoritative
// withdrawal notice). Engine context.
func (b *Balancer) Eject(name string) {
	if be := b.backends[name]; be != nil {
		be.breaker.ForceOpen()
	}
}

// onBreaker reacts to a breaker transition: entering or leaving the open
// state changes ring membership. Half-open stays out of the ring — only
// probe traffic (active health checks) tests a recovering backend.
func (b *Balancer) onBreaker(be *backend, from, to BreakerState) {
	now := int64(b.clock.Now())
	if to == BreakerOpen {
		b.ejections.Add(1)
		b.lastEjectAt.Store(now)
	}
	if to == BreakerClosed && from != BreakerClosed {
		b.lastRejoinAt.Store(now)
	}
	b.rebuild()
}

// rebuild recomputes ring membership from breaker states.
func (b *Balancer) rebuild() {
	members := make([]string, 0, len(b.order))
	for _, name := range b.order {
		if b.backends[name].breaker.State() == BreakerClosed {
			members = append(members, name)
		}
	}
	b.ring.SetMembers(members)
}

// Ejections counts breaker openings across all backends.
func (b *Balancer) Ejections() int64 { return b.ejections.Load() }

// LastEjectAt is the virtual time of the most recent ejection (ring
// shrink); zero if none. Safe from any goroutine.
func (b *Balancer) LastEjectAt() sim.Time { return sim.Time(b.lastEjectAt.Load()) }

// LastRejoinAt is the virtual time of the most recent breaker re-close
// (ring regrow); zero if none. Safe from any goroutine.
func (b *Balancer) LastRejoinAt() sim.Time { return sim.Time(b.lastRejoinAt.Load()) }

// Successes returns backend name's successful-request count (the
// determinism experiments compare per-backend service counts).
func (b *Balancer) Successes(name string) int64 {
	if be := b.backends[name]; be != nil {
		return be.successes.Load()
	}
	return 0
}

// StartHealth arms the active health checker: each backend is probed
// (resolve + TCP connect, over the real virtual network) every
// HealthInterval plus seeded jitter; results feed its breaker, so a dead
// backend is ejected even with no client traffic, and a recovered one
// closes its half-open breaker. Engine context.
func (b *Balancer) StartHealth() {
	if b.healthOn {
		return
	}
	b.healthOn = true
	for i, name := range b.order {
		be := b.backends[name]
		// Stagger the first round so N backends aren't probed at one
		// instant.
		first := healthInterval * sim.Duration(i+1) / sim.Duration(len(b.order)+1)
		be.probeTimer = b.engine.After(first+b.jitter(), func() { b.probe(be) })
	}
}

// StopHealth cancels probe timers and breaker timers so the engine queue
// can drain (call before Driver.Drain).
func (b *Balancer) StopHealth() {
	b.healthOn = false
	for _, name := range b.order {
		be := b.backends[name]
		if be.probeTimer != nil {
			be.probeTimer.Cancel()
			be.probeTimer = nil
		}
		be.breaker.Stop()
	}
}

// jitter returns up to healthInterval/8 of seeded jitter.
func (b *Balancer) jitter() sim.Duration {
	return sim.Duration(b.rand.Uint64() % uint64(healthInterval/8+1))
}

// probe runs one active health check against be and reschedules.
func (b *Balancer) probe(be *backend) {
	be.probeTimer = nil
	if !b.healthOn {
		return
	}
	be.probes.Add(1)
	done := false
	finish := func(ok bool) {
		if done {
			return
		}
		done = true
		if ok {
			be.breaker.Success()
		} else {
			be.probeFailures.Add(1)
			be.breaker.Fail()
		}
		if b.healthOn {
			be.probeTimer = b.engine.After(healthInterval+b.jitter(), func() { b.probe(be) })
		}
	}
	b.resolver.LookupA(be.host, func(addrs []netstack.IPAddr, err error) {
		if done {
			return
		}
		if err != nil || len(addrs) == 0 {
			finish(false)
			return
		}
		conn, err := b.stack.TCP().Connect(addrs[0], probePort, nil)
		if err != nil {
			finish(false)
			return
		}
		timeout := b.engine.After(healthTimeout, func() {
			if !done {
				finish(false)
				_ = conn.Close()
			}
		})
		conn.OnConnect = func(c *netstack.Conn) {
			timeout.Cancel()
			finish(true)
			_ = c.Close()
		}
		conn.OnClose = func(*netstack.Conn) {
			timeout.Cancel()
			finish(false)
		}
	})
}

// Metrics emits the ring's size, the ejection total and, per backend, its
// breaker state (as a label, with the host it dials) and its pick,
// success, failure, probe and ejection counters. Counters and breaker
// states are atomics; the backend set is fixed once AddBackend calls end.
func (b *Balancer) Metrics(emit metrics.Emit) {
	emit("lb_ring_members", float64(len(b.ring.Members())))
	emit("lb_backends", float64(len(b.order)))
	emit("lb_ejections", float64(b.ejections.Load()))
	for _, name := range b.order {
		be := b.backends[name]
		l := fmt.Sprintf("{backend=%q}", name)
		emit(fmt.Sprintf("lb_backend_breaker{backend=%q,host=%q,state=%q}", name, be.host, be.breaker.State()), 1)
		emit("lb_backend_picks"+l, float64(be.picks.Load()))
		emit("lb_backend_successes"+l, float64(be.successes.Load()))
		emit("lb_backend_failures"+l, float64(be.failures.Load()))
		emit("lb_backend_probes"+l, float64(be.probes.Load()))
		emit("lb_backend_probe_failures"+l, float64(be.probeFailures.Load()))
		emit("lb_backend_ejections"+l, float64(be.breaker.Ejections()))
	}
}
