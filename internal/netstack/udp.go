package netstack

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"spin/internal/cow"
	"spin/internal/sim"
)

// UDPHandler receives a datagram delivered to a bound port.
type UDPHandler func(pkt *Packet)

// UDP is the stack's UDP module: a port table with handler endpoints. SPIN
// endpoints are in-kernel handlers (procedure-call delivery); the baselines
// wrap handlers in socket-cost shims.
//
// The port table is a cow.Map: deliver — the per-packet path — is one
// lock-free load, and a delivery in flight during Bind/Unbind sees either
// the old or the new table.
type UDP struct {
	stack *Stack
	ports cow.Map[uint16, udpBinding]

	// mu guards cursor, the next ephemeral-port offset to try.
	mu     sync.Mutex
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
	if _, dup := u.ports.LoadOrStore(port, udpBinding{h: h, cost: cost, owner: owner}); dup {
		return fmt.Errorf("netstack: UDP port %d in use", port)
	}
	return nil
}

// Unbind releases port.
func (u *UDP) Unbind(port uint16) { u.ports.Delete(port) }

// UnbindOwner releases every port bound under owner in one snapshot swap —
// the UDP module's teardown reclaimer. Deliveries in flight see either the
// old table (and run the departing handler one last time) or the new one.
// It returns the number of ports released.
func (u *UDP) UnbindOwner(owner string) int {
	if owner == "" {
		return 0
	}
	return u.ports.DeleteFunc(func(_ uint16, b udpBinding) bool { return b.owner == owner })
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
	u.mu.Lock()
	defer u.mu.Unlock()
	ports := u.ports.Snapshot()
	const span = EphemeralMax - EphemeralMin + 1
	for i := 0; i < span; i++ {
		p := uint16(EphemeralMin + (u.cursor+i)%span)
		if _, used := ports[p]; !used {
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
// declined to claim it). Lock-free: one atomic load of the port table.
func (u *UDP) deliver(pkt *Packet) {
	b, ok := u.ports.Get(pkt.DstPort)
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
		st.packets.Add(1)
		st.bytes.Add(int64(len(pkt.Payload)))
	})
	return st, err
}

// SinkStats counts sink deliveries. Counters are atomics, so they may be
// read from any goroutine.
type SinkStats struct {
	packets atomic.Int64
	bytes   atomic.Int64
}

// Packets reports datagrams delivered to the sink.
func (st *SinkStats) Packets() int64 { return st.packets.Load() }

// Bytes reports payload bytes delivered to the sink.
func (st *SinkStats) Bytes() int64 { return st.bytes.Load() }

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
