package netstack

import "spin/internal/bcode"

// Verified bytecode in the RX path. Two load points share the packet
// context ABI below:
//
//   - AttachXDP hangs one verified program below the protocol graph, at
//     the very top of receive1 — the XDP position. Its verdict is binary
//     (nonzero = drop before the link-layer event fires), its cost is one
//     atomic load when absent, and it cannot reach kernel memory at all:
//     the verifier proved every load in bounds before the program was
//     admitted.
//
//   - PacketFilter (ext_filter.go) installs a program as a dispatcher
//     guard on EvIPArrived with an ordinary, quarantinable handler
//     performing the filter action.

// Packet context ABI: the words a packet-attached program may LdCtx, plus
// the payload as the byte region. This layout is load-bearing — programs
// are verified and written against it — so treat it as a wire format:
// extend by appending, never reorder.
const (
	CtxProto   = 0 // IP protocol number
	CtxSrc     = 1 // source address
	CtxDst     = 2 // destination address
	CtxSrcPort = 3 // transport source port
	CtxDstPort = 4 // transport destination port
	CtxLen     = 5 // payload length in bytes
	CtxTTL     = 6 // remaining hop budget
	CtxFlags   = 7 // TCP flags
	// PacketCtxWords is how many words the packet ABI exposes.
	PacketCtxWords = 8
)

// PacketSpec is the verification spec for packet-attached programs.
var PacketSpec = bcode.Spec{Words: PacketCtxWords}

// packetContext fills ctx from pkt.
func packetContext(ctx *bcode.Context, pkt *Packet) {
	ctx.W[CtxProto] = uint64(pkt.Proto)
	ctx.W[CtxSrc] = uint64(pkt.Src)
	ctx.W[CtxDst] = uint64(pkt.Dst)
	ctx.W[CtxSrcPort] = uint64(pkt.SrcPort)
	ctx.W[CtxDstPort] = uint64(pkt.DstPort)
	ctx.W[CtxLen] = uint64(len(pkt.Payload))
	ctx.W[CtxTTL] = uint64(int64(pkt.TTL))
	ctx.W[CtxFlags] = uint64(pkt.Flags)
	ctx.Bytes = pkt.Payload
}

// XDPFilter is one verified early-drop program attached below the protocol
// graph: its Stats are packets evaluated and packets dropped.
type XDPFilter = bcode.Attachment

// AttachXDP verifies prog against the packet ABI and attaches it at the
// earliest point of the receive path, replacing any previous XDP program.
// A program that fails verification never attaches.
func (s *Stack) AttachXDP(name string, prog *bcode.Program) (*XDPFilter, error) {
	x, err := bcode.Attach(name, "xdp", prog, PacketSpec)
	if err != nil {
		return nil, err
	}
	s.xdp.Store(x)
	return x, nil
}

// DetachXDP removes the attached XDP program, if any.
func (s *Stack) DetachXDP() { s.xdp.Store(nil) }

// XDP returns the attached XDP program, or nil.
func (s *Stack) XDP() *XDPFilter { return s.xdp.Load() }

// xdpDrop evaluates the attached program (if any) against pkt, charging one
// guard evaluation, and reports whether the packet is to be dropped. The
// context lives on this frame: Run is a direct call that keeps no reference.
func (s *Stack) xdpDrop(pkt *Packet) bool {
	x := s.xdp.Load()
	if x == nil {
		return false
	}
	s.clock.Advance(s.profile.GuardEval)
	var ctx bcode.Context
	packetContext(&ctx, pkt)
	if !x.Run(&ctx) {
		return false
	}
	x.Hit()
	return true
}

// Programs snapshots every verified program loaded into this stack: the
// XDP program, then the IP-layer filters in install order.
func (s *Stack) Programs() []bcode.Stat {
	var out []bcode.Stat
	if x := s.xdp.Load(); x != nil {
		out = append(out, x.Stat())
	}
	s.filterMu.Lock()
	defer s.filterMu.Unlock()
	for _, f := range s.filters {
		st := f.prog.Stat()
		st.Quarantined = f.Quarantined()
		out = append(out, st)
	}
	return out
}
