package baseline

import (
	"spin/internal/dispatch"
	"spin/internal/netstack"
	"spin/internal/sal"
	"spin/internal/sim"
)

// Networking on the baselines reuses the netstack protocol machinery — the
// wire, drivers, IP/UDP/TCP are the same physics — but endpoints live in
// user processes behind sockets: every packet crosses the user/kernel
// boundary with a copy, a system call, socket bookkeeping, and a scheduler
// wakeup. SPIN endpoints are in-kernel handlers and pay none of that.

// Host is one baseline machine with a user-level network endpoint model.
type Host struct {
	Sys   *System
	Disp  *dispatch.Dispatcher
	IC    *sal.InterruptController
	NIC   *sal.NIC
	Stack *netstack.Stack
}

// NewHost builds a baseline machine with one NIC of the given model.
func (s *System) NewHost(name string, ip netstack.IPAddr, model sal.NICModel) (*Host, error) {
	disp := dispatch.New(s.Engine, s.Profile)
	ic := sal.NewInterruptController(s.Engine, s.Profile)
	nic := sal.NewNIC(model, s.Engine, ic, sal.VecNIC0)
	stack, err := netstack.NewStack(name, ip, s.Engine, s.Profile, disp)
	if err != nil {
		return nil, err
	}
	stack.Attach(nic)
	return &Host{Sys: s, Disp: disp, IC: ic, NIC: nic, Stack: stack}, nil
}

// SocketDelivery is the receive path to a user process: socket-layer
// bookkeeping, a copy across the user/kernel boundary, the recv system
// call, and the wakeup of the blocked process.
func (s *System) SocketDelivery() netstack.DeliveryCost {
	prof := s.Profile
	return func(clock *sim.Clock, pkt *netstack.Packet) {
		clock.Advance(prof.SocketOp)
		clock.Advance(sim.Duration((len(pkt.Payload)+7)/8) * prof.CopyPerWord)
		clock.Advance(prof.Trap) // return from blocked recv
		clock.Advance(prof.SyscallOverhead)
		clock.Advance(prof.ContextSwitch)
	}
}

// chargeUserSend is the send-side user path: sendto system call, copy into
// the kernel, socket-layer processing.
func (h *Host) chargeUserSend(payloadBytes int) {
	prof := h.Sys.Profile
	h.Sys.Clock.Advance(prof.Trap)
	h.Sys.Clock.Advance(prof.SyscallOverhead)
	h.Sys.Clock.Advance(sim.Duration((payloadBytes+7)/8) * prof.CopyPerWord)
	h.Sys.Clock.Advance(prof.SocketOp)
	h.Sys.Clock.Advance(prof.Trap)
}

// UDPSend transmits a datagram from a user process.
func (h *Host) UDPSend(srcPort uint16, dst netstack.IPAddr, dstPort uint16, payload []byte) error {
	h.chargeUserSend(len(payload))
	return h.Stack.UDP().Send(srcPort, dst, dstPort, payload)
}

// UDPEchoServer starts a user-level UDP echo process on port.
func (h *Host) UDPEchoServer(port uint16) error {
	return h.Stack.UDP().Bind(port, h.Sys.SocketDelivery(), func(pkt *netstack.Packet) {
		_ = h.UDPSend(port, pkt.Src, pkt.SrcPort, pkt.Payload)
	})
}

// UDPSplice is the user-level forwarding process (paper §5.3, Table 6):
// a process that receives on port and re-sends to target. Each packet makes
// two trips through the protocol stack and is twice copied across the
// user/kernel boundary.
type UDPSplice struct {
	host   *Host
	port   uint16
	target netstack.IPAddr
	// lastClient remembers the most recent non-target sender so replies
	// from the target can be relayed back.
	lastClient netstack.IPAddr
	lastPort   uint16
	// Spliced counts forwarded datagrams.
	Spliced int64
}

// NewUDPSplice installs the user-level forwarder. It is bidirectional:
// packets from the target are relayed to the most recent client, everything
// else to the target.
func NewUDPSplice(h *Host, port uint16, target netstack.IPAddr) (*UDPSplice, error) {
	sp := &UDPSplice{host: h, port: port, target: target}
	err := h.Stack.UDP().Bind(port, h.Sys.SocketDelivery(), func(pkt *netstack.Packet) {
		sp.Spliced++
		if pkt.Src == target {
			if sp.lastClient != 0 {
				_ = h.UDPSend(port, sp.lastClient, sp.lastPort, pkt.Payload)
			}
			return
		}
		sp.lastClient, sp.lastPort = pkt.Src, pkt.SrcPort
		_ = h.UDPSend(port, target, port, pkt.Payload)
	})
	if err != nil {
		return nil, err
	}
	return sp, nil
}

// TCPSplice is the user-level TCP forwarder: it accepts a connection on
// port and splices it to a second connection to target. Because it runs
// above the transport layer it terminates TCP locally — connection
// establishment and teardown are NOT end-to-end, the deficiency the paper
// calls out.
type TCPSplice struct {
	host   *Host
	target netstack.IPAddr
	port   uint16
	// Spliced counts forwarded segments' payload bytes.
	Spliced int64
}

// NewTCPSplice installs the user-level TCP forwarder.
func NewTCPSplice(h *Host, port uint16, target netstack.IPAddr) (*TCPSplice, error) {
	sp := &TCPSplice{host: h, target: target, port: port}
	cost := h.Sys.SocketDelivery()
	err := h.Stack.TCP().Listen(port, cost, func(inbound *netstack.Conn) {
		// Accept: open the outbound leg from the splice process.
		h.chargeUserSend(0)
		outbound, err := h.Stack.TCP().Connect(target, port, cost)
		if err != nil {
			inbound.Close()
			return
		}
		in, out := &spliceLeg{sp: sp, c: inbound}, &spliceLeg{sp: sp, c: outbound}
		in.peer, out.peer = out, in
		inbound.Handler, outbound.Handler = in, out
	})
	if err != nil {
		return nil, err
	}
	return sp, nil
}

// spliceLeg is one connection of a splice, its handler, and what the other
// leg, peer, delivered for it that it has not yet taken: everything before
// the outbound leg connects, and whatever its send buffer has no room for.
type spliceLeg struct {
	sp      *TCPSplice
	c       *netstack.Conn
	peer    *spliceLeg
	pending [][]byte
	closing bool // the other leg closed: close behind what is pending
}

// Connected sends what the inbound leg delivered while this one connected.
func (l *spliceLeg) Connected(*netstack.Conn) { l.drain() }

// Received passes what this leg delivered on to the other.
func (l *spliceLeg) Received(_ *netstack.Conn, data []byte) {
	l.sp.Spliced += int64(len(data))
	l.peer.forward(data)
}

// Sent sends more of what is held, now that ACKs have freed room.
func (l *spliceLeg) Sent(*netstack.Conn) { l.drain() }

// Closed closes the other leg behind what is held for it, and this one.
func (l *spliceLeg) Closed(*netstack.Conn) {
	l.peer.close()
	l.c.Close()
}

// forward passes data on, or holds a copy of it behind what is held.
func (l *spliceLeg) forward(data []byte) {
	if len(l.pending) == 0 && l.send(data) {
		return
	}
	// The packet owning data is pooled; copy before it is reused.
	l.pending = append(l.pending, append([]byte(nil), data...))
}

// send passes d on, through the user send path, if the connection is up
// and its send buffer has room for d.
func (l *spliceLeg) send(d []byte) bool {
	if l.c.State() == netstack.StateSynSent || l.c.Buffered()+len(d) > netstack.SendBufSize {
		return false
	}
	l.sp.host.chargeUserSend(len(d))
	_ = l.c.Send(d)
	return true
}

// drain sends what is held, in order, while there is room, and closes the
// connection once nothing is held if the other leg has closed.
func (l *spliceLeg) drain() {
	for len(l.pending) > 0 && l.send(l.pending[0]) {
		l.pending = l.pending[1:]
	}
	if l.closing && len(l.pending) == 0 {
		l.c.Close()
	}
}

// close closes the connection behind what is held for it.
func (l *spliceLeg) close() {
	l.closing = true
	l.drain()
}

// VideoServer is the OSF/1 video server: a user-space process that sends
// each outgoing packet through a socket — copied into the kernel and pushed
// through the whole protocol stack once per client stream.
type VideoServer struct {
	host    *Host
	port    uint16
	clients []netstack.IPAddr
	source  netstack.VideoFrameSource
	// PacketsSent counts per-client sends.
	PacketsSent int64
}

// NewVideoServer builds the user-level video server.
func NewVideoServer(h *Host, port uint16, source netstack.VideoFrameSource) *VideoServer {
	return &VideoServer{host: h, port: port, source: source}
}

// Subscribe adds a client stream.
func (vs *VideoServer) Subscribe(client netstack.IPAddr) {
	vs.clients = append(vs.clients, client)
}

// SendFrame sends frame n to every client — one full user-send and stack
// traversal per client.
func (vs *VideoServer) SendFrame(n int) {
	payload := vs.source(n)
	for _, dst := range vs.clients {
		vs.PacketsSent++
		_ = vs.host.UDPSend(vs.port, dst, vs.port, payload)
	}
}
