// Package vnet builds virtual internets out of spin Machines: routed
// multi-machine topologies whose nodes are full SPIN kernels (and simple
// store-and-forward switches), connected by modeled links with latency,
// bandwidth serialization, and seeded loss / reordering / duplication.
//
// Everything runs on sim.Cluster's conservative discrete-event stepping:
// each machine and each switch owns its engine and clock, frames hop
// between engines at computed arrival times, and the globally earliest
// event always runs first. With a fixed topology and seed, a run is
// byte-identical — per-link frame-order digests (Link.Digests,
// Internet.Fingerprint) make that checkable, netem-style hooks (Link.
// AddHook) are the one place a frame in flight is delayed, altered or
// dropped on purpose, and CaptureLink exports any link's frames as a
// tshark-readable pcap file. Faults inside a kernel come from the
// machine's own faultinject sites; no link consults an injector.
//
// Topologies come from the Builder DSL or the Star / Dumbbell / FatTree
// helpers; the conversation harness (RunConversations) drives cross-machine
// TCP transfers over any of them.
package vnet

import (
	"fmt"
	"io"

	"spin"
	"spin/internal/netstack"
	"spin/internal/sim"
)

// Internet is a built topology: machines, switches and links coordinated by
// one conservative cluster. Construct one with a Builder (or the topology
// helpers), then drive traffic and Run it.
type Internet struct {
	cluster *sim.Cluster
	// coord is the coordinator engine: a clockless scheduler for topology
	// events (link flaps, scripted failures) at exact virtual times.
	coord *sim.Engine

	seed         uint64
	machines     map[string]*spin.Machine
	machineOrder []string
	switches     map[string]*Switch
	switchOrder  []string
	links        map[string]*Link
	linkOrder    []string

	// Naming & sockets (named.go): the topology-wide DNS authority and the
	// blocking-adapter driver over the cluster.
	dnsServer string
	driver    *netstack.Driver
	// resolvers are the per-machine stub resolvers EnableDNS installed
	// (internet-owned), in machine order — RemoveName flushes a withdrawn
	// name from each so staleness is bounded by the negative TTL.
	resolvers []*netstack.Resolver
}

// Cluster returns the conservative cluster driving all engines.
func (in *Internet) Cluster() *sim.Cluster { return in.cluster }

// Machine returns a machine by name (nil if absent).
func (in *Internet) Machine(name string) *spin.Machine { return in.machines[name] }

// Machines lists machine names in declaration order.
func (in *Internet) Machines() []string { return in.machineOrder }

// Switch returns a switch by name (nil if absent).
func (in *Internet) Switch(name string) *Switch { return in.switches[name] }

// Switches lists switch names in declaration order.
func (in *Internet) Switches() []string { return in.switchOrder }

// Link returns a link by name (nil if absent).
func (in *Internet) Link(name string) *Link { return in.links[name] }

// Links lists link names in declaration order.
func (in *Internet) Links() []string { return in.linkOrder }

// IP returns a machine's address.
func (in *Internet) IP(name string) netstack.IPAddr {
	if m := in.machines[name]; m != nil {
		return m.Stack.IP
	}
	return 0
}

// Run drains the whole topology until every engine is idle or the earliest
// pending event passes deadline (0 = none). Returns events executed.
func (in *Internet) Run(deadline sim.Time) int { return in.cluster.Run(deadline) }

// RunUntil steps until pred holds, everything drains, or deadline passes.
func (in *Internet) RunUntil(pred func() bool, deadline sim.Time) bool {
	return in.cluster.RunUntil(pred, deadline)
}

// At schedules fn on the coordinator engine at virtual time t — the hook
// for scripted topology events (flaps, staged traffic).
func (in *Internet) At(t sim.Time, fn func()) { in.coord.At(t, fn) }

// FlapLink schedules a partition: the named link goes down at downAt and
// comes back at upAt. TCP conversations across it stall and recover by
// retransmission once the link heals.
func (in *Internet) FlapLink(name string, downAt, upAt sim.Time) error {
	l := in.links[name]
	if l == nil {
		return fmt.Errorf("vnet: no link %q", name)
	}
	in.coord.At(downAt, func() { l.SetDown(true) })
	in.coord.At(upAt, func() { l.SetDown(false) })
	return nil
}

// CaptureLink streams both directions of the named link to w as a classic
// pcap capture. Call before running; returns the capture for Records/Err.
func (in *Internet) CaptureLink(name string, w io.Writer) (*Capture, error) {
	l := in.links[name]
	if l == nil {
		return nil, fmt.Errorf("vnet: no link %q", name)
	}
	c := NewCapture(w)
	l.cap = c
	return c, nil
}

// Fingerprint folds the whole run into one value: every link's digests (in
// declaration order) plus every machine's end-state counters (IP packets
// received/sent, per-NIC frames and bytes). Two runs of the same seeded
// topology match exactly when their fingerprints match.
func (in *Internet) Fingerprint() uint64 {
	fp := sim.Mix64(in.seed)
	for _, name := range in.linkOrder {
		ab, ba := in.links[name].Digests()
		fp = sim.Mix64(fp ^ sim.HashString(name) ^ ab)
		fp = sim.Mix64(fp ^ ba)
	}
	for _, name := range in.machineOrder {
		m := in.machines[name]
		recv, sent := m.Stack.Stats()
		fp = sim.Mix64(fp ^ sim.HashString(name) ^ uint64(recv)<<32 ^ uint64(sent))
		for _, nic := range m.NICs() {
			s, r, bs, br := nic.Stats()
			fp = sim.Mix64(fp ^ uint64(s)<<48 ^ uint64(r)<<32 ^ uint64(bs)<<16 ^ uint64(br))
		}
	}
	for _, name := range in.switchOrder {
		f, nr, ttl := in.switches[name].Stats()
		fp = sim.Mix64(fp ^ sim.HashString(name) ^ uint64(f)<<32 ^ uint64(nr)<<16 ^ uint64(ttl))
	}
	return fp
}

// Describe renders the topology: nodes, links and their models — the
// debugger's "topo" view.
func (in *Internet) Describe() string {
	s := fmt.Sprintf("vnet: %d machines, %d switches, %d links (seed %d)\n",
		len(in.machineOrder), len(in.switchOrder), len(in.linkOrder), in.seed)
	for _, name := range in.machineOrder {
		m := in.machines[name]
		s += fmt.Sprintf("  machine %-12s %v  nics=%d\n", name, m.Stack.IP, len(m.NICs()))
	}
	for _, name := range in.switchOrder {
		sw := in.switches[name]
		s += fmt.Sprintf("  switch  %-12s ports=%d\n", name, len(sw.ports))
	}
	for _, name := range in.linkOrder {
		l := in.links[name]
		state := "up"
		if l.down {
			state = "DOWN"
		}
		s += fmt.Sprintf("  link    %-12s lat=%v bw=%d loss=%.3f %s\n",
			name, l.Model.Latency, l.Model.BandwidthBps, l.Model.Loss, state)
	}
	return s
}
