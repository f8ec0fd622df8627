package netstack

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"spin/internal/cow"
	"spin/internal/dispatch"
	"spin/internal/domain"
	"spin/internal/faultinject"
	"spin/internal/metrics"
	"spin/internal/sal"
	"spin/internal/sim"
	"spin/internal/trace"
)

// Event names in the protocol graph (Figure 5). Every event carries a
// *Packet argument; handlers return true to claim the packet.
const (
	EvEtherArrived = "Ether.PktArrived"
	EvATMArrived   = "ATM.PktArrived"
	EvIPArrived    = "IP.PacketArrived"
	EvICMPArrived  = "ICMP.PktArrived"
	EvUDPArrived   = "UDP.PktArrived"
	EvTCPArrived   = "TCP.PktArrived"
	// EvSendPacket is raised on the outbound path; the video server's
	// multicast extension installs here.
	EvSendPacket = "Video.SendPacket"
)

// anyClaimed folds handler results: the packet is claimed if any handler
// claimed it.
func anyClaimed(results []any) any {
	for _, r := range results {
		if b, ok := r.(bool); ok && b {
			return true
		}
	}
	return false
}

// Endpoint delivery semantics differ between systems: a SPIN extension
// receives the packet in the kernel for free (a procedure call); a user
// process behind a socket pays the socket/copy/wakeup path. DeliveryCost
// lets the baseline reuse this stack while charging its structure.
type DeliveryCost func(clock *sim.Clock, p *Packet)

// InKernelDelivery is SPIN's: the handler IS the endpoint; no extra cost
// beyond the dispatch already charged.
func InKernelDelivery(*sim.Clock, *Packet) {}

// DefaultRXQueueDepth bounds each attached NIC's receive queue: a full queue
// drops the frame (counted, traced) rather than buffering without bound.
const DefaultRXQueueDepth = 1024

// rxQueue is one NIC's bounded receive queue. The driver upcall enqueues in
// interrupt context by posting the packet's own engine step, which runs its
// protocol processing (rxPosted); depth counts the steps posted and not yet
// run. Only the simulation goroutine touches depth.
type rxQueue struct {
	stack     *Stack
	nic       *sal.NIC
	linkEvent *dispatch.Event
	depth     int
	accepted  atomic.Int64
	dropped   atomic.Int64
}

// Stack is one machine's protocol stack. It attaches NIC drivers at the
// bottom, defines the protocol-graph events on the machine's dispatcher,
// and hosts the UDP/TCP port tables.
//
// Concurrency model: packets are received, sent and timed on the simulation
// goroutine (whichever goroutine steps the engine; behind the socket
// adapters, the Driver's loop), one engine step per received packet; raises
// charge the machine's clock, so they run there too (see sim.Clock). Other
// goroutines may read Metrics, whose counters are atomics. The route, UDP
// port and TCP listener tables are cow.Maps, so a reader never sees a torn
// table.
type Stack struct {
	Host    string
	IP      IPAddr
	engine  *sim.Engine
	clock   *sim.Clock
	profile *sim.Profile
	disp    *dispatch.Dispatcher
	// The graph events, resolved once at construction: a packet's raises
	// go by handle, not by name.
	evEther, evATM, evIP, evICMP, evUDP, evTCP *dispatch.Event

	// mu serializes Attach (the queue list and the default NIC change
	// together). The receive path never takes it.
	mu sync.Mutex
	// routes maps destination address -> outbound NIC.
	routes cow.Map[IPAddr, *sal.NIC]
	// defaultNIC carries packets with no specific route.
	defaultNIC atomic.Pointer[sal.NIC]

	// rxqs is the copy-on-write list of per-NIC receive queues, in Attach
	// order.
	rxqs atomic.Pointer[[]*rxQueue]

	udp *UDP
	tcp *TCP

	// fragID numbers outbound fragmented datagrams; reasm collects
	// inbound fragments.
	fragID uint32 // accessed atomically
	reasm  *reassembly

	received atomic.Int64
	sent     atomic.Int64
	// rxPanics counts handler panics contained in the receive path: a
	// faulty protocol handler costs its packet, never the drain or the
	// kernel (paper §4.3 applied to the data path).
	rxPanics atomic.Int64

	// xdp is the verified early-drop program evaluated before the
	// link-layer event fires (see ext_bcode.go); filters tracks the
	// installed IP-layer filters for the metrics surface.
	xdp      atomic.Pointer[XDPFilter]
	filterMu sync.Mutex
	filters  []*PacketFilter
}

// NewStack builds a protocol stack on the machine's dispatcher and defines
// the graph events. ident names the stack for authorization purposes.
func NewStack(host string, ip IPAddr, engine *sim.Engine, profile *sim.Profile, disp *dispatch.Dispatcher) (*Stack, error) {
	s := &Stack{
		Host:    host,
		IP:      ip,
		engine:  engine,
		clock:   engine.Clock,
		profile: profile,
		disp:    disp,
		reasm:   newReassembly(),
	}
	emptyQueues := []*rxQueue(nil)
	s.rxqs.Store(&emptyQueues)
	// The IP module is the default implementation module for
	// IP.PacketArrived: its authorizer hands each installer a guard
	// comparing the packet's protocol type against what the handler may
	// service (the paper's worked example). Installers declare the
	// protocols they service via identity name prefix "proto:<n>:".
	ipAuth := func(installer domain.Identity) (dispatch.Guard, error) {
		var proto uint8
		if n, err := fmt.Sscanf(installer.Name, "proto:%d:", &proto); n == 1 && err == nil {
			p := proto
			return func(arg any) bool {
				pkt, ok := arg.(*Packet)
				return ok && pkt.Proto == p
			}, nil
		}
		return nil, nil // no protocol claim: unrestricted (trusted stack parts)
	}
	events := []struct {
		name string
		opts dispatch.DefineOptions
	}{
		{EvEtherArrived, dispatch.DefineOptions{Combiner: anyClaimed}},
		{EvATMArrived, dispatch.DefineOptions{Combiner: anyClaimed}},
		{EvIPArrived, dispatch.DefineOptions{Combiner: anyClaimed, Authorizer: ipAuth}},
		{EvICMPArrived, dispatch.DefineOptions{Combiner: anyClaimed}},
		{EvUDPArrived, dispatch.DefineOptions{Combiner: anyClaimed}},
		{EvTCPArrived, dispatch.DefineOptions{Combiner: anyClaimed}},
		{EvSendPacket, dispatch.DefineOptions{Combiner: anyClaimed}},
	}
	for _, e := range events {
		if err := disp.Define(e.name, e.opts); err != nil {
			return nil, err
		}
	}
	s.evEther, s.evATM, s.evIP = disp.Event(EvEtherArrived), disp.Event(EvATMArrived), disp.Event(EvIPArrived)
	s.evICMP, s.evUDP, s.evTCP = disp.Event(EvICMPArrived), disp.Event(EvUDPArrived), disp.Event(EvTCPArrived)
	s.udp = &UDP{stack: s}
	s.tcp = newTCP(s)

	// ICMP echo: the Ping module's primary handler.
	_, err := disp.Install(EvICMPArrived, func(arg, _ any) any {
		pkt := arg.(*Packet)
		if pkt.ICMPType == 8 { // echo request -> reply
			reply := AllocPacket()
			reply.Src, reply.Dst, reply.Proto = s.IP, pkt.Src, ProtoICMP
			reply.ICMPType, reply.ICMPSeq = 0, pkt.ICMPSeq
			reply.SetPayload(pkt.Payload)
			reply.TTL = 32
			_ = s.SendIP(reply)
			return true
		}
		return false
	}, dispatch.InstallOptions{Installer: domain.Identity{Name: "proto:1:ping", Trusted: true}})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// UDP exposes the stack's UDP module.
func (s *Stack) UDP() *UDP { return s.udp }

// TCP exposes the stack's TCP module.
func (s *Stack) TCP() *TCP { return s.tcp }

// Dispatcher exposes the machine dispatcher (extensions install handlers
// through it).
func (s *Stack) Dispatcher() *dispatch.Dispatcher { return s.disp }

// Engine exposes the machine engine (timers).
func (s *Stack) Engine() *sim.Engine { return s.engine }

// Clock exposes the machine clock.
func (s *Stack) Clock() *sim.Clock { return s.clock }

// Attach connects a NIC as a driver at the bottom of the graph. The first
// attached NIC becomes the default route. Incoming frames land in the NIC's
// bounded RX queue; protocol processing drains the queue in a separately
// scheduled kernel thread (one context switch per packet, paper §5.3). A
// full queue drops the frame — explicit backpressure, never unbounded
// buffering.
func (s *Stack) Attach(nic *sal.NIC) {
	s.mu.Lock()
	if s.defaultNIC.Load() == nil {
		s.defaultNIC.Store(nic)
	}
	linkEvent := s.evEther
	if nic.Model.CellSize > 0 {
		linkEvent = s.evATM
	}
	q := &rxQueue{stack: s, nic: nic, linkEvent: linkEvent}
	next := append(slices.Clone(*s.rxqs.Load()), q)
	s.rxqs.Store(&next)
	s.mu.Unlock()
	nic.OnReceive = func(f sal.NetFrame) bool {
		pkt, ok := f.Payload.(*Packet)
		if !ok {
			return false
		}
		if !s.enqueueRX(q, pkt) {
			// The sender donated its reference; a queue-full drop is the
			// end of the packet's life.
			pkt.Release()
			return false
		}
		return true
	}
}

// enqueueRX places one packet on a NIC's receive queue by posting its drain
// step, so per-packet virtual timing is identical to a directly scheduled
// receive. A full queue drops the packet and counts it.
func (s *Stack) enqueueRX(q *rxQueue, pkt *Packet) bool {
	if q.depth == DefaultRXQueueDepth {
		q.dropped.Add(1)
		if tr := s.disp.Tracer(); tr != nil {
			tr.Trace(trace.Record{Event: "net.rx.dropped", Origin: "net", Start: s.clock.Now()})
		}
		return false
	}
	q.depth++
	q.accepted.Add(1)
	// Protocol processing runs in a separately scheduled kernel thread
	// outside the interrupt handler (paper §5.3).
	s.engine.Post(s.clock.Now(), rxPosted, q, pkt, 0)
	return true
}

// rxPosted is one queued packet's drain step.
func rxPosted(queue, pkt any, _ int) {
	q := queue.(*rxQueue)
	q.depth--
	q.stack.receivePosted(q.linkEvent, pkt.(*Packet))
}

// receivePosted runs one packet up the graph in the protocol thread,
// charging its context switch, and releases the packet after its synchronous
// delivery (handlers that keep payload bytes have copied them by then).
func (s *Stack) receivePosted(linkEvent *dispatch.Event, pkt *Packet) {
	s.clock.Advance(s.profile.ContextSwitch)
	s.safeReceive(linkEvent, pkt)
	pkt.Release()
}

// safeReceive pushes one packet up the graph behind a panic guard: a handler
// panic that escapes the dispatcher's containment (or an injected one from
// the "net.rx" site) is recovered here, counted, and traced — the packet is
// lost, the drain keeps going.
func (s *Stack) safeReceive(linkEvent *dispatch.Event, pkt *Packet) {
	defer func() {
		if r := recover(); r != nil {
			s.rxPanics.Add(1)
			if tr := s.disp.Tracer(); tr != nil {
				tr.Trace(trace.Record{
					Event: "net.rx.panic", Origin: "net",
					Start: s.clock.Now(), Outcome: trace.OutcomeFaulted,
				})
			}
		}
	}()
	s.receive(linkEvent, pkt)
}

// ReceiveOne pushes a single packet up the graph synchronously, bypassing
// the NIC queues — the direct entry the RX benchmarks use to measure the
// per-packet path (with and without an XDP program attached) without queue
// noise. Call it from the simulation goroutine.
func (s *Stack) ReceiveOne(pkt *Packet) {
	s.safeReceive(s.evEther, pkt)
}

// InjectRX enqueues pkt directly on the nicIndex'th attached NIC's receive
// queue, bypassing the wire — the entry point for chaos and backpressure
// tests. Call it from the simulation goroutine. It reports false if the
// queue was full and the packet was not enqueued; on false the caller keeps
// its reference (it may retry), on true the stack takes ownership of pooled
// packets (non-pooled ones are unaffected — Release is a no-op — so tests
// may re-inject the same literal).
func (s *Stack) InjectRX(nicIndex int, pkt *Packet) bool {
	qs := *s.rxqs.Load()
	if nicIndex < 0 || nicIndex >= len(qs) {
		return false
	}
	return s.enqueueRX(qs[nicIndex], pkt)
}

// AddRoute directs packets for dst out through nic.
func (s *Stack) AddRoute(dst IPAddr, nic *sal.NIC) { s.routes.Set(dst, nic) }

// AddRoutes installs a whole table of routes in one publish; AddRoute
// copies the table once per route.
func (s *Stack) AddRoutes(routes map[IPAddr]*sal.NIC) {
	s.routes.Update(func(next map[IPAddr]*sal.NIC) { maps.Copy(next, routes) })
}

// Routes reports how many destination-specific routes are installed; every
// other destination goes out through the default NIC.
func (s *Stack) Routes() int { return len(s.routes.Snapshot()) }

// routeFor resolves the outbound NIC for dst: the specific route if one is
// installed, else the default NIC. Lock-free.
func (s *Stack) routeFor(dst IPAddr) *sal.NIC {
	if nic, _ := s.routes.Get(dst); nic != nil {
		return nic
	}
	return s.defaultNIC.Load()
}

// receive pushes one packet up the graph, timing the whole inbound path
// when tracing is enabled (the tracer pointer is the dispatcher's single
// enable/disable switch, so the disabled cost is one nil check per packet).
func (s *Stack) receive(linkEvent *dispatch.Event, pkt *Packet) {
	tr := s.disp.Tracer()
	if tr == nil {
		s.receive1(linkEvent, pkt)
		return
	}
	start := s.clock.Now()
	s.receive1(linkEvent, pkt)
	tr.Observe("net.rx", s.clock.Now().Sub(start))
}

func (s *Stack) receive1(linkEvent *dispatch.Event, pkt *Packet) {
	// Injection site "net.rx": drop/error discards the packet before the
	// graph sees it; a panic rule exercises the safeReceive guard.
	if f := s.disp.InjectorInstalled().Fire("net.rx"); f.Kind == faultinject.KindDrop || f.Kind == faultinject.KindError {
		return
	}
	// XDP position: the attached verified program (if any) sees the packet
	// before any layer counts or events — the cheapest possible drop.
	if s.xdpDrop(pkt) {
		return
	}
	s.received.Add(1)
	// Link layer processing + event.
	s.clock.Advance(s.profile.ProtoLayer)
	if claimed, _ := s.disp.RaiseEvent(linkEvent, pkt).(bool); claimed {
		return
	}
	// IP layer: header validation, checksum over header.
	s.clock.Advance(s.profile.ProtoLayer)
	if claimed, _ := s.disp.RaiseEvent(s.evIP, pkt).(bool); claimed {
		return
	}
	if pkt.Dst != s.IP {
		// Not ours and nobody claimed it: an end host drops transit
		// traffic. Routing is vnet.Switch's job, or a forwarder
		// extension's that claims the packet above.
		return
	}
	// Reassemble fragmented datagrams before transport processing.
	if pkt.MoreFrags || pkt.FragID != 0 {
		// Injection site "net.ip.reassemble": losing a fragment leaves a
		// partial buffer for the TTL sweep to evict — the leak the
		// reassembler must absorb.
		if f := s.disp.InjectorInstalled().Fire("net.ip.reassemble"); f.Kind == faultinject.KindDrop || f.Kind == faultinject.KindError {
			return
		}
		s.clock.Advance(s.profile.ProtoLayer / 2)
		whole, waited := s.reasm.reassemble(pkt, s.clock.Now())
		if whole == nil {
			return // awaiting more fragments
		}
		if tr := s.disp.Tracer(); tr != nil {
			// Reassembly latency: first fragment arrival to completion.
			tr.Observe("net.ip.reassemble", waited)
		}
		// The reassembled datagram is a fresh pooled packet; released
		// here after its synchronous delivery (the fragment that
		// completed it is released by its drain step as usual).
		defer whole.Release()
		pkt = whole
	}
	// Transport layer: header processing plus checksum verification over
	// the payload.
	s.clock.Advance(s.profile.ProtoLayer + sim.Duration(len(pkt.Payload))*ChecksumPerByte)
	switch pkt.Proto {
	case ProtoICMP:
		s.disp.RaiseEvent(s.evICMP, pkt)
	case ProtoUDP:
		if claimed, _ := s.disp.RaiseEvent(s.evUDP, pkt).(bool); !claimed {
			s.udp.deliver(pkt)
		}
	case ProtoTCP:
		if claimed, _ := s.disp.RaiseEvent(s.evTCP, pkt).(bool); !claimed {
			s.tcp.deliver(pkt)
		}
	}
}

func loopbackPosted(stack, pkt any, _ int) {
	s := stack.(*Stack)
	s.receivePosted(s.evEther, pkt.(*Packet))
}

// ErrNoRoute reports a destination with no attached NIC.
var ErrNoRoute = errors.New("netstack: no route to host")

// ChecksumPerByte is the CPU cost of checksumming one payload byte
// (~1 cycle/byte at 133 MHz). Charged once on send and once on receive.
const ChecksumPerByte = 8 * sim.Nanosecond

// SendIP transmits pkt: transport+IP header build, then the driver. The
// caller donates its reference to pkt; the stack releases it on every
// failure path, and delivery on the receiving machine releases it after the
// handlers run.
func (s *Stack) SendIP(pkt *Packet) error {
	if pkt.TTL == 0 {
		pkt.TTL = 32
	}
	if pkt.Dst == s.IP {
		// Loopback: a packet addressed to the stack's own IP never touches
		// a NIC — it re-enters the receive path on the next engine step,
		// the way a loopback interface short-circuits the driver. Without
		// this, a service colocated with its own client (the DNS authority
		// resolving through itself, a balancer probing a local backend)
		// deadlocks on a query no wire will ever carry.
		s.clock.Advance(2*s.profile.ProtoLayer + sim.Duration(len(pkt.Payload))*ChecksumPerByte)
		s.sent.Add(1)
		s.engine.Post(s.clock.Now(), loopbackPosted, s, pkt, 0)
		return nil
	}
	nic := s.routeFor(pkt.Dst)
	if nic == nil {
		pkt.Release()
		return ErrNoRoute
	}
	// Transport + IP header construction, plus the transport checksum
	// over the payload.
	s.clock.Advance(2*s.profile.ProtoLayer + sim.Duration(len(pkt.Payload))*ChecksumPerByte)
	s.sent.Add(1)
	if mtu := mtuFor(nic); pkt.WireSize()-EtherHeader > mtu {
		return s.sendFragmented(pkt, nic, mtu)
	}
	if err := nic.Send(sal.NetFrame{Size: pkt.WireSize(), Payload: pkt}); err != nil {
		pkt.Release()
		return err
	}
	return nil
}

// Ping sends an ICMP echo request; reply invokes cb with the round-trip
// observed at this stack's clock. The reply handler lives only until it
// claims its echo (or the request fails to leave), so pings do not
// lengthen the walk for later ICMP arrivals.
func (s *Stack) Ping(dst IPAddr, seq uint16, payload int, cb func(rtt sim.Duration)) error {
	start := s.clock.Now()
	var ref dispatch.HandlerRef
	ref, err := s.disp.Install(EvICMPArrived, func(arg, _ any) any {
		pkt := arg.(*Packet)
		if pkt.ICMPType != 0 || pkt.ICMPSeq != seq {
			return false
		}
		_ = s.disp.Remove(ref) // fails only if a teardown already removed it
		if cb != nil {
			cb(s.clock.Now().Sub(start))
		}
		return true
	}, dispatch.InstallOptions{Installer: domain.Identity{Name: "proto:1:ping-client"}})
	if err != nil {
		return err
	}
	req := AllocPacket()
	req.Src, req.Dst, req.Proto = s.IP, dst, ProtoICMP
	req.ICMPType, req.ICMPSeq = 8, seq
	req.AllocPayload(payload)
	req.TTL = 32
	if err := s.SendIP(req); err != nil {
		_ = s.disp.Remove(ref)
		return err
	}
	return nil
}

// Stats reports packets received and sent at the IP layer. Counters are
// atomics, so it is safe from any goroutine.
func (s *Stack) Stats() (received, sent int64) { return s.received.Load(), s.sent.Load() }

// Metrics emits the stack's packet counters (IP-layer rx/tx, the RX queues,
// reassembly, contained RX panics), the pooled packets held,
// the TCP module's, and every verified program loaded into the stack.
// Counters are atomics, so it is safe from any goroutine.
func (s *Stack) Metrics(emit metrics.Emit) {
	emit("net_rx_packets", float64(s.received.Load()))
	emit("net_tx_packets", float64(s.sent.Load()))
	var accepted, dropped int64
	for _, q := range *s.rxqs.Load() {
		accepted += q.accepted.Load()
		dropped += q.dropped.Load()
	}
	emit("net_rx_queue_accepted", float64(accepted))
	emit("net_rx_queue_dropped", float64(dropped))
	emit("net_reassembly_pending", float64(s.reasm.Pending()))
	emit("net_reassembly_evicted", float64(s.reasm.Evicted()))
	emit("net_rx_panics", float64(s.rxPanics.Load()))
	emit("net_packets_live", float64(LivePackets())) // pooled packets held, process-wide
	s.tcp.Metrics(emit)
	if x := s.xdp.Load(); x != nil {
		x.Metrics(emit)
	}
	s.filterMu.Lock()
	filters := slices.Clone(s.filters)
	s.filterMu.Unlock()
	for _, f := range filters {
		f.prog.Metrics(emit)
		quarantined := 0.0
		if f.Quarantined() {
			quarantined = 1
		}
		emit("bcode_quarantined"+f.prog.Labels(), quarantined)
	}
}
