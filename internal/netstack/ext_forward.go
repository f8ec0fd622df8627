package netstack

import "math"

// Forwarder is the protocol-forwarding extension (paper §5.3, Table 6): it
// installs a node into the protocol stack which redirects all data *and
// control* packets destined for a particular port to a secondary host.
// Because it intercepts at the IP layer — below the transport — TCP
// end-to-end semantics (connection establishment, termination, window and
// congestion behaviour) pass through intact, which the paper contrasts with
// a user-level socket splice. The node is a Divert packet filter: a
// verified predicate selects the packets, the consumer re-sends them.
type Forwarder struct {
	// Forwarded counts redirected packets.
	Forwarded int64
}

// newForwarder diverts packets matching pred whose hop budget allows one
// more hop (the rest are left to the stack) and re-sends a copy with
// rewrite applied and the TTL decremented.
func newForwarder(stack *Stack, name string, pred Predicate, rewrite func(fwd *Packet)) (*Forwarder, error) {
	filter, err := NewPacketFilter(stack, name, And(pred, matchWord(CtxTTL, 2, math.MaxInt32)), Divert)
	if err != nil {
		return nil, err
	}
	f := &Forwarder{}
	filter.Consumer = func(pkt *Packet) {
		fwd := pkt.Clone()
		rewrite(fwd)
		fwd.TTL = pkt.TTL - 1
		f.Forwarded++
		_ = stack.SendIP(fwd)
	}
	return f, nil
}

// NewForwarder redirects packets with destination port `port` and protocol
// `proto` (ProtoTCP or ProtoUDP) arriving at this stack to `target`.
// Packets from the target back to the original senders flow through the
// same node in reverse (source-port match).
func NewForwarder(stack *Stack, proto uint8, port uint16, target IPAddr) (*Forwarder, error) {
	// Inbound: client -> this host -> target.
	return newForwarder(stack, "forward-ext",
		And(MatchProto(proto), MatchDstPortRange(port, port), MatchDst(stack.IP)),
		func(fwd *Packet) { fwd.Dst = target })
}

// NewReverseForwarder complements NewForwarder on the return path: packets
// arriving at this stack *from* `from` with source port `port` are
// redirected to `target` (the original client side), with the source
// rewritten to this host so the client's connection state matches the
// address it originally dialed.
func NewReverseForwarder(stack *Stack, proto uint8, port uint16, from, target IPAddr) (*Forwarder, error) {
	return newForwarder(stack, "forward-ext-rev",
		And(MatchProto(proto), matchWord(CtxSrcPort, uint64(port), uint64(port)), MatchSrc(from)),
		func(fwd *Packet) { fwd.Src, fwd.Dst = stack.IP, target })
}
