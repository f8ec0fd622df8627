package netstack

import (
	"errors"
	"fmt"

	"spin/internal/sim"
)

// UDPHandler receives a datagram delivered to a bound port.
type UDPHandler func(pkt *Packet)

// UDP is the stack's UDP module: a port table with handler endpoints. SPIN
// endpoints are in-kernel handlers (procedure-call delivery); the baselines
// wrap handlers in socket-cost shims.
//
// The port table is a plain map owned, like the rest of the stack, by
// whoever steps the machine's engine; a handler that unbinds its own port
// during delivery has already been looked up.
type UDP struct {
	stack *Stack
	ports map[uint16]udpBinding
	// cursor is the next ephemeral-port offset to try.
	cursor int
}

type udpBinding struct {
	h     UDPHandler
	cost  DeliveryCost
	owner string
}

// Bind installs handler as the endpoint for port. cost models the delivery
// path (InKernelDelivery for SPIN extensions).
func (u *UDP) Bind(port uint16, cost DeliveryCost, h UDPHandler) error {
	return u.BindOwned("", port, cost, h)
}

// BindOwned is Bind with a recorded owning principal, so the endpoint is
// released by UnbindOwner when the owner's domain is destroyed.
func (u *UDP) BindOwned(owner string, port uint16, cost DeliveryCost, h UDPHandler) error {
	if cost == nil {
		cost = InKernelDelivery
	}
	if _, dup := u.ports[port]; dup {
		return fmt.Errorf("netstack: UDP port %d in use", port)
	}
	if u.ports == nil {
		u.ports = make(map[uint16]udpBinding)
	}
	u.ports[port] = udpBinding{h: h, cost: cost, owner: owner}
	return nil
}

// Unbind releases port.
func (u *UDP) Unbind(port uint16) { delete(u.ports, port) }

// UnbindOwner releases every port bound under owner — the UDP module's
// teardown reclaimer. It returns the number of ports released.
func (u *UDP) UnbindOwner(owner string) int {
	if owner == "" {
		return 0
	}
	n := 0
	for port, b := range u.ports {
		if b.owner == owner {
			delete(u.ports, port)
			n++
		}
	}
	return n
}

// Ephemeral ports are allocated from [EphemeralMin, EphemeralMax]; the
// allocator never wraps into the well-known range (a uint16 increment past
// 65535 lands on port 0).
const (
	EphemeralMin = 20000
	EphemeralMax = 65535
)

// ErrPortsExhausted reports that every ephemeral port is bound.
var ErrPortsExhausted = errors.New("netstack: ephemeral UDP ports exhausted")

// EphemeralPort returns a fresh high port in [EphemeralMin, EphemeralMax],
// or ErrPortsExhausted when every port in the range is bound.
func (u *UDP) EphemeralPort() (uint16, error) {
	const span = EphemeralMax - EphemeralMin + 1
	for i := 0; i < span; i++ {
		p := uint16(EphemeralMin + (u.cursor+i)%span)
		if _, used := u.ports[p]; !used {
			u.cursor = (u.cursor + i + 1) % span
			return p, nil
		}
	}
	return 0, ErrPortsExhausted
}

// Send transmits a datagram. The payload is copied into a pooled packet,
// so the caller keeps ownership of its slice (and handlers may re-send the
// payload of a packet being delivered to them, as Echo does).
func (u *UDP) Send(srcPort uint16, dst IPAddr, dstPort uint16, payload []byte) error {
	pkt := AllocPacket()
	pkt.Src, pkt.Dst, pkt.Proto = u.stack.IP, dst, ProtoUDP
	pkt.SrcPort, pkt.DstPort = srcPort, dstPort
	pkt.SetPayload(payload)
	pkt.TTL = 32
	return u.stack.SendIP(pkt)
}

// deliver hands a datagram to its bound endpoint (after graph handlers
// declined to claim it).
func (u *UDP) deliver(pkt *Packet) {
	b, ok := u.ports[pkt.DstPort]
	if !ok {
		return // port unreachable; silently dropped in this model
	}
	b.cost(u.stack.clock, pkt)
	if b.h != nil {
		b.h(pkt)
	}
}

// Echo starts a UDP echo server on port with the given delivery cost:
// payload is bounced back to the sender. Used by the Table 5 latency
// benchmark.
func (u *UDP) Echo(port uint16, cost DeliveryCost) error {
	return u.Bind(port, cost, func(pkt *Packet) {
		_ = u.Send(port, pkt.Src, pkt.SrcPort, pkt.Payload)
	})
}

// Sink binds port to a pure consumer, counting packets and bytes — the
// bandwidth benchmark's receiver. It returns the counter.
func (u *UDP) Sink(port uint16, cost DeliveryCost) (*SinkStats, error) {
	st := &SinkStats{}
	err := u.Bind(port, cost, func(pkt *Packet) {
		st.packets++
		st.bytes += int64(len(pkt.Payload))
	})
	return st, err
}

// SinkStats counts sink deliveries.
type SinkStats struct {
	packets int64
	bytes   int64
}

// Packets reports datagrams delivered to the sink.
func (st *SinkStats) Packets() int64 { return st.packets }

// Bytes reports payload bytes delivered to the sink.
func (st *SinkStats) Bytes() int64 { return st.bytes }

// Flood sends n payload-sized datagrams back to back — the bandwidth
// benchmark's sender half. Returns virtual time consumed at the sender.
func (u *UDP) Flood(srcPort uint16, dst IPAddr, dstPort uint16, n, size int) sim.Duration {
	start := u.stack.clock.Now()
	buf := make([]byte, size)
	for i := 0; i < n; i++ {
		_ = u.Send(srcPort, dst, dstPort, buf)
	}
	return u.stack.clock.Now().Sub(start)
}
