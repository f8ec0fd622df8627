package sal

import (
	"fmt"

	"spin/internal/sim"
)

// NICModel captures the performance-relevant characteristics of a network
// interface: wire rate, media framing, host-interface style (programmed I/O
// versus DMA), fixed hardware latency, and per-packet driver costs. The
// three models below correspond to the paper's hardware. Driver costs are
// calibrated so that UDP/IP round trips land near Table 5 (the paper notes
// neither vendor driver is optimized for latency).
type NICModel struct {
	Name string
	// WireRate is the raw signalling rate in bits per second.
	WireRate int64
	// FrameOverhead is the per-packet media overhead in bytes (preamble,
	// inter-frame gap, CRC for Ethernet).
	FrameOverhead int
	// CellSize/CellPayload, when non-zero, cellize the packet (ATM: 53
	// byte cells carrying 48 payload bytes).
	CellSize, CellPayload int
	// PIOWordCost is the CPU cost of moving one 8-byte word across the
	// host interface with programmed I/O; zero means DMA.
	PIOWordCost sim.Duration
	// DMASetup is the per-packet CPU cost of programming a DMA transfer.
	DMASetup sim.Duration
	// FixedLatency is the one-way hardware latency (card, switch,
	// propagation).
	FixedLatency sim.Duration
	// DriverSendCost / DriverRecvCost are the per-packet CPU costs of the
	// vendor driver's send and receive paths, excluding data movement.
	DriverSendCost, DriverRecvCost sim.Duration
}

// The paper's three network interfaces.
var (
	// LanceModel: 10 Mb/s Lance Ethernet; DMA; drivers unoptimized for
	// latency but optimized for throughput.
	LanceModel = NICModel{
		Name:           "Lance Ethernet",
		WireRate:       10_000_000,
		FrameOverhead:  24, // preamble 8 + IFG 12 + CRC 4
		DMASetup:       2 * sim.Microsecond,
		FixedLatency:   40 * sim.Microsecond,
		DriverSendCost: 62 * sim.Microsecond,
		DriverRecvCost: 72 * sim.Microsecond,
	}
	// ForeModel: FORE TCA-100 155 Mb/s ATM; programmed I/O limits usable
	// bandwidth to ~53 Mb/s between hosts.
	ForeModel = NICModel{
		Name:           "FORE ATM",
		WireRate:       155_000_000,
		CellSize:       53,
		CellPayload:    48,
		PIOWordCost:    1800, // ns per 8-byte word, uncached I/O space
		FixedLatency:   30 * sim.Microsecond,
		DriverSendCost: 45 * sim.Microsecond,
		DriverRecvCost: 55 * sim.Microsecond,
	}
	// T3Model: experimental Digital T3PKT, 45 Mb/s with DMA (the Figure 6
	// video experiment).
	T3Model = NICModel{
		Name:           "Digital T3PKT",
		WireRate:       45_000_000,
		FrameOverhead:  4,
		DMASetup:       2 * sim.Microsecond,
		FixedLatency:   20 * sim.Microsecond,
		DriverSendCost: 35 * sim.Microsecond,
		DriverRecvCost: 30 * sim.Microsecond,
	}

	// The paper's §5.3 note: "Using different device drivers we achieve a
	// round-trip latency of 337 µsecs on Ethernet and 241 µsecs on ATM,
	// while reliable ATM bandwidth between a pair of hosts rises to 41
	// Mb/sec." These are those drivers: leaner per-packet paths and a
	// faster PIO loop.

	// OptimizedLanceModel: a latency-tuned Ethernet driver.
	OptimizedLanceModel = NICModel{
		Name:           "Lance Ethernet (optimized)",
		WireRate:       10_000_000,
		FrameOverhead:  24,
		DMASetup:       2 * sim.Microsecond,
		FixedLatency:   40 * sim.Microsecond,
		DriverSendCost: 4 * sim.Microsecond,
		DriverRecvCost: 7 * sim.Microsecond,
	}
	// OptimizedForeModel: a tuned ATM driver with an unrolled PIO loop.
	OptimizedForeModel = NICModel{
		Name:           "FORE ATM (optimized)",
		WireRate:       155_000_000,
		CellSize:       53,
		CellPayload:    48,
		PIOWordCost:    1450,
		FixedLatency:   30 * sim.Microsecond,
		DriverSendCost: 5 * sim.Microsecond,
		DriverRecvCost: 9 * sim.Microsecond,
	}
)

// WireBytes returns the number of bytes the media carries for an n-byte
// frame, including framing or cellization.
func (m *NICModel) WireBytes(n int) int {
	if m.CellSize > 0 {
		cells := (n + 8 + m.CellPayload - 1) / m.CellPayload // +8: AAL5 trailer
		return cells * m.CellSize
	}
	return n + m.FrameOverhead
}

// TxTime returns the media transmission time for an n-byte frame.
func (m *NICModel) TxTime(n int) sim.Duration {
	bits := int64(m.WireBytes(n)) * 8
	return sim.Duration(bits * int64(sim.Second) / m.WireRate)
}

// hostMoveCost returns the CPU cost of moving an n-byte frame across the
// host interface (PIO per word, or DMA setup).
func (m *NICModel) hostMoveCost(n int) sim.Duration {
	if m.PIOWordCost > 0 {
		words := sim.Duration((n + 7) / 8)
		return words * m.PIOWordCost
	}
	return m.DMASetup
}

// NetFrame is a frame in flight: a wire size plus an opaque payload (the
// protocol stack's packet object rides through unserialized; only Size
// affects timing).
type NetFrame struct {
	Size    int
	Payload any
}

// Wire is the attachable transport behind a NIC's transmitter. Send charges
// the driver and host-interface costs, serializes the frame on the NIC's
// transmitter, and hands it to the wire with the time serialization
// finished; the wire owns everything from there — propagation delay, loss
// and reordering models, multi-hop forwarding through switches — and
// ultimately schedules arrival on a destination NIC via DeliverAt. Connect
// installs the trivial point-to-point wire; internal/vnet installs modeled
// links and switched topologies.
type Wire interface {
	// Transmit carries f, which finished serializing out of the sending
	// NIC at departed (sender-local virtual time).
	Transmit(f NetFrame, departed sim.Time)
}

// NIC is one network interface on one machine. Frames leave through the
// attached Wire and are delivered to the destination NIC through its
// machine's interrupt controller; the registered receive upcall is the
// driver's entry point.
//
// A NIC belongs to its machine: its counters are plain fields, written in
// interrupt context and read (Stats, RXDropped) by whoever steps the
// machine's engine.
type NIC struct {
	Model  NICModel
	engine *sim.Engine
	clock  *sim.Clock
	ic     *InterruptController
	vector InterruptVector

	wire     Wire
	txFreeAt sim.Time

	// OnReceive is the driver receive upcall, called in interrupt context
	// after the driver receive cost has been charged. It reports whether
	// the frame was accepted; a false return means the protocol stack's
	// bounded RX queue was full (backpressure) and the NIC counts the
	// frame as dropped on receive.
	OnReceive func(NetFrame) bool

	sent, received int64
	bytesSent      int64
	bytesReceived  int64
	rxDropped      int64
}

// RXDropped reports received frames the driver upcall refused — arrivals
// that found the stack's bounded RX queue full.
func (n *NIC) RXDropped() int64 { return n.rxDropped }

// NewNIC creates an interface of the given model on the machine described
// by engine/ic, delivering receive interrupts on vector.
func NewNIC(model NICModel, engine *sim.Engine, ic *InterruptController, vector InterruptVector) *NIC {
	return &NIC{
		Model:  model,
		engine: engine,
		clock:  engine.Clock,
		ic:     ic,
		vector: vector,
	}
}

// AttachWire installs w as the NIC's outbound transport, replacing any
// previous wire. Topology builders (internal/vnet) use this to hang a NIC
// off a modeled link or switch port instead of a fixed peer.
func (n *NIC) AttachWire(w Wire) { n.wire = w }

// Wire returns the attached outbound transport (nil when unconnected).
func (n *NIC) Wire() Wire { return n.wire }

// DeliverAt schedules f's receive interrupt on this NIC at absolute virtual
// time t — the receive-side entry point wires and switch nodes use.
func (n *NIC) DeliverAt(t sim.Time, f NetFrame) {
	n.engine.Post(t, receivePosted, n, f.Payload, f.Size)
}

// receivePosted is the NIC's receive interrupt. The frame's two words ride
// in the posted event as they are (boxing a NetFrame for the controller's
// handler table would allocate once a frame), so the NIC enters the
// interrupt on its vector itself.
func receivePosted(nic, payload any, size int) {
	n := nic.(*NIC)
	n.ic.enter(n.vector, n.Model.DriverRecvCost+n.Model.hostMoveCost(size))
	n.received++
	n.bytesReceived += int64(size)
	if n.OnReceive != nil && !n.OnReceive(NetFrame{Size: size, Payload: payload}) {
		n.rxDropped++
	}
}

// ptpWire is the point-to-point wire Connect installs: fixed hardware
// latency straight to the peer NIC.
type ptpWire struct {
	to      *NIC
	latency sim.Duration
}

func (w *ptpWire) Transmit(f NetFrame, departed sim.Time) {
	w.to.DeliverAt(departed.Add(w.latency), f)
}

// Connect joins two NICs with a full-duplex link. Both must share a model
// (same media).
func Connect(a, b *NIC) error {
	if a.Model.Name != b.Model.Name {
		return fmt.Errorf("sal: cannot connect %s to %s", a.Model.Name, b.Model.Name)
	}
	a.wire = &ptpWire{to: b, latency: a.Model.FixedLatency}
	b.wire = &ptpWire{to: a, latency: b.Model.FixedLatency}
	return nil
}

// Send transmits a frame: it charges the driver send path and data movement
// to this machine's CPU, serializes on the transmitter, and hands the frame
// to the attached wire, which schedules the receive interrupt on the
// destination machine.
func (n *NIC) Send(f NetFrame) error {
	if n.wire == nil {
		return fmt.Errorf("sal: %s not connected", n.Model.Name)
	}
	n.clock.Advance(n.Model.DriverSendCost + n.Model.hostMoveCost(f.Size))
	start := n.clock.Now()
	if n.txFreeAt > start {
		start = n.txFreeAt
	}
	tx := n.Model.TxTime(f.Size)
	n.txFreeAt = start.Add(tx)
	n.sent++
	n.bytesSent += int64(f.Size)
	n.wire.Transmit(f, n.txFreeAt)
	return nil
}

// ReleaseFrame recycles a frame's payload at the end of its life (a
// refcounted netstack packet dropped by a wire, link or switch). The
// interface assertion keeps sal independent of the protocol stack's packet
// type; foreign payloads are untouched.
func ReleaseFrame(f NetFrame) {
	if r, ok := f.Payload.(interface{ Release() }); ok {
		r.Release()
	}
}

// Stats reports frames and bytes in each direction.
func (n *NIC) Stats() (sent, received, bytesSent, bytesReceived int64) {
	return n.sent, n.received, n.bytesSent, n.bytesReceived
}
