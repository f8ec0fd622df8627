package netstack

import (
	"encoding/binary"

	"spin/internal/dispatch"
	"spin/internal/domain"
	"spin/internal/sal"
	"spin/internal/sim"
)

// The networked video system (paper §1.2, §5.4, Figure 6). The server is
// three kernel extensions: one reads video frames from storage, one sends
// them over the network, and one registers itself as a handler on the
// SendPacket event, transforming the single send into a multicast to a list
// of clients. Because each outgoing packet is pushed through the protocol
// graph only once — not once per client stream — the server scales to more
// clients than one that processes each packet in isolation.

// VideoFrameSource supplies compressed frame payloads (the file-system
// extension in the real experiment; synthetic bytes in benches).
type VideoFrameSource func(frame int) []byte

// VideoServer streams frames to registered clients.
type VideoServer struct {
	stack  *Stack
	send   *dispatch.Event // EvSendPacket
	source VideoFrameSource
	port   uint16

	clients []IPAddr

	// FramesSent counts frames pushed through the graph (once per frame,
	// regardless of client count).
	FramesSent int64
	// PacketsSent counts per-client transmissions by the multicast
	// handler.
	PacketsSent int64
}

// NewVideoServer builds the server extension trio on stack. Frames go to
// UDP port `port` on every subscribed client.
func NewVideoServer(stack *Stack, port uint16, source VideoFrameSource) (*VideoServer, error) {
	vs := &VideoServer{stack: stack, send: stack.disp.Event(EvSendPacket), source: source, port: port}
	// The multicast extension: a handler on SendPacket that fans a single
	// logical send out to the client list.
	_, err := stack.disp.Install(EvSendPacket, func(arg, _ any) any {
		pkt := arg.(*Packet)
		for _, dst := range vs.clients {
			out := pkt.Clone()
			out.Dst = dst
			// Per-client work: header patch, per-packet UDP
			// checksum, driver handoff; the protocol-stack
			// traversal already happened once for the template.
			vs.stack.clock.Advance(vs.stack.profile.ProcCall)
			vs.stack.clock.Advance(sim.Duration(len(out.Payload)) * ChecksumPerByte)
			nic := vs.stack.routeFor(dst)
			if nic == nil {
				continue
			}
			vs.PacketsSent++
			_ = nic.Send(frameFor(out))
		}
		return true
	}, dispatch.InstallOptions{Installer: domain.Identity{Name: "video-multicast"}})
	if err != nil {
		return nil, err
	}
	return vs, nil
}

func frameFor(p *Packet) (f sal.NetFrame) {
	return sal.NetFrame{Size: p.WireSize(), Payload: p}
}

// Subscribe adds a client stream.
func (vs *VideoServer) Subscribe(client IPAddr) { vs.clients = append(vs.clients, client) }

// Clients reports the subscriber count.
func (vs *VideoServer) Clients() int { return len(vs.clients) }

// SendFrame reads frame number n from the source and pushes it through the
// protocol graph exactly once; the multicast handler fans it out.
func (vs *VideoServer) SendFrame(n int) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(n))
	payload := append(hdr[:], vs.source(n)...)
	// Read path + single UDP/IP traversal for the template packet.
	vs.stack.clock.Advance(2 * vs.stack.profile.ProtoLayer)
	pkt := &Packet{
		Src: vs.stack.IP, Proto: ProtoUDP,
		SrcPort: vs.port, DstPort: vs.port,
		Payload: payload, TTL: 32,
	}
	vs.FramesSent++
	vs.stack.disp.RaiseEvent(vs.send, pkt)
}

// VideoClient is the client-side extension: it awaits incoming video
// packets, decompresses them, and writes them directly to the frame buffer
// — all within the kernel.
type VideoClient struct {
	stack *Stack
	// decompressPerByte models the decompression work per payload byte.
	decompressPerByte sim.Duration
	// fb, when attached, receives decompressed frames; without one the
	// extension charges an equivalent memory-write cost.
	fb *sal.Framebuffer

	FramesShown int64
	LastFrame   int
}

// AttachFramebuffer directs decompressed frames to a display device.
func (vc *VideoClient) AttachFramebuffer(fb *sal.Framebuffer) { vc.fb = fb }

// NewVideoClient installs the client extension on UDP port `port`.
func NewVideoClient(stack *Stack, port uint16) (*VideoClient, error) {
	vc := &VideoClient{stack: stack, decompressPerByte: 2}
	err := stack.UDP().Bind(port, InKernelDelivery, func(pkt *Packet) {
		if len(pkt.Payload) < 4 {
			return
		}
		n := int(binary.BigEndian.Uint32(pkt.Payload[:4]))
		body := pkt.Payload[4:]
		// Decompress and write to the framebuffer.
		vc.stack.clock.Advance(sim.Duration(len(body)) * vc.decompressPerByte)
		if vc.fb != nil {
			vc.fb.WriteFrame(body)
		} else {
			vc.stack.clock.Advance(sim.Duration(len(body)/8) * vc.stack.profile.CopyPerWord)
		}
		vc.FramesShown++
		vc.LastFrame = n
	})
	if err != nil {
		return nil, err
	}
	return vc, nil
}
