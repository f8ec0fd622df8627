package vnet

import (
	"spin/internal/netstack"
	"spin/internal/sal"
	"spin/internal/sim"
)

// DefaultForwardCost is a switch's per-frame forwarding latency (lookup +
// crossbar), charged on the switch's own clock.
const DefaultForwardCost = 2 * sim.Microsecond

// Switch is a store-and-forward network node: frames arrive on a port, pay
// the forwarding cost on the switch's own engine/clock, and leave through
// the port its route table names for the packet's destination address.
// Route tables are programmed by the topology builder (BFS shortest paths);
// a frame with no route — or a non-IP payload — is dropped.
type Switch struct {
	Name        string
	ForwardCost sim.Duration

	engine *sim.Engine
	clock  *sim.Clock
	ports  []*Port
	routes map[netstack.IPAddr]*Port

	forwarded, noRoute, ttlExpired int64
}

func newSwitch(name string) *Switch {
	eng := sim.NewEngine()
	return &Switch{
		Name:        name,
		ForwardCost: DefaultForwardCost,
		engine:      eng,
		clock:       eng.Clock,
		routes:      make(map[netstack.IPAddr]*Port),
	}
}

// Engine returns the switch's simulation engine (registered with the
// Internet's cluster).
func (sw *Switch) Engine() *sim.Engine { return sw.engine }

// Stats reports frames forwarded, dropped for want of a route, and dropped
// by TTL expiry.
func (sw *Switch) Stats() (forwarded, noRoute, ttlExpired int64) {
	return sw.forwarded, sw.noRoute, sw.ttlExpired
}

// addPort grows the switch by one port; out (the link half transmitting
// away from this port) is wired by the builder after both ends exist.
func (sw *Switch) addPort() *Port {
	p := &Port{sw: sw}
	sw.ports = append(sw.ports, p)
	return p
}

// Port is one switch attachment point. It is a link endpoint (frames arrive
// here) and holds the outbound half of the same link.
type Port struct {
	sw  *Switch
	out sal.Wire // transmit half of the attached link, away from the switch
}

// DeliverAt schedules the frame's forwarding step on the switch's engine —
// the endpoint contract links deliver into.
func (p *Port) DeliverAt(t sim.Time, f sal.NetFrame) {
	p.sw.engine.Post(t, forwardPosted, p.sw, f.Payload, f.Size)
}

func forwardPosted(sw, payload any, size int) {
	sw.(*Switch).forward(sal.NetFrame{Size: size, Payload: payload})
}

// forward runs one frame through the switch at its arrival event: charge
// the forwarding cost, decrement TTL (loop guard), look up the output port,
// and hand the frame to that port's link half with the switch's current
// time as departure.
func (sw *Switch) forward(f sal.NetFrame) {
	sw.clock.Advance(sw.ForwardCost)
	pkt, ok := f.Payload.(*netstack.Packet)
	if !ok {
		sw.noRoute++
		sal.ReleaseFrame(f)
		return
	}
	out := sw.routes[pkt.Dst]
	if out == nil || out.out == nil {
		sw.noRoute++
		sal.ReleaseFrame(f)
		return
	}
	pkt.TTL--
	if pkt.TTL <= 0 {
		sw.ttlExpired++
		sal.ReleaseFrame(f)
		return
	}
	sw.forwarded++
	out.out.Transmit(f, sw.clock.Now())
}
