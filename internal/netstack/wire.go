package netstack

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Wire codec: the byte-level frame format for a Packet. The simulation
// normally passes *Packet by reference (only sizes affect timing), but the
// byte form is the boundary where untrusted input enters the stack — frames
// replayed from a capture, crafted by the network debugger, or injected by
// a hostile peer. ParsePacket therefore validates every field it reads and
// is fuzzed (FuzzParsePacket); nothing it returns can make the stack panic
// or allocate without bound.
//
// Layout (big-endian):
//
//	ether(14): dst MAC, src MAC, ethertype 0x0800
//	ip(20):    version, total length(2), frag id(4), frag offset(2),
//	           flags, TTL, protocol, src(4), dst(4)
//	transport: UDP(8) ports/length; TCP(20) ports/seq/ack/flags/window;
//	           ICMP(8) type/seq — matching the header size constants the
//	           cost model charges for.

// etherTypeIPv4 marks IP payloads in the ethernet header.
const etherTypeIPv4 = 0x0800

// ipMoreFrags is the MoreFrags bit in the IP flags byte.
const ipMoreFrags = 0x01

// Errors returned by ParsePacket.
var (
	ErrFrameTooShort = errors.New("netstack: frame too short")
	ErrBadEtherType  = errors.New("netstack: not an IPv4 frame")
	ErrBadIPVersion  = errors.New("netstack: bad IP version")
	ErrBadLength     = errors.New("netstack: IP total length inconsistent")
)

// transportHeaderLen returns the transport header size for proto (0 for
// unknown protocols, which carry their payload right after the IP header).
func transportHeaderLen(proto uint8) int {
	switch proto {
	case ProtoUDP:
		return UDPHeader
	case ProtoTCP:
		return TCPHeader
	case ProtoICMP:
		return ICMPHeader
	}
	return 0
}

// clampU16 saturates v into the uint16 range for encoding.
func clampU16(v int) uint16 {
	if v < 0 {
		return 0
	}
	if v > 0xffff {
		return 0xffff
	}
	return uint16(v)
}

// EncodePacket renders pkt in wire form. Fields wider in the struct than on
// the wire (TTL, Window, FragOffset) saturate; the parse side of a
// round-trip is therefore canonical.
func EncodePacket(pkt *Packet) []byte {
	return AppendPacket(nil, pkt)
}

// AppendPacket appends pkt's wire form to dst and returns the extended
// buffer — the allocation-free encoder for hot paths that reuse a scratch
// buffer (the append is recognized by the compiler as grow-and-clear, so a
// dst with enough capacity costs nothing).
func AppendPacket(dst []byte, pkt *Packet) []byte {
	thdr := transportHeaderLen(pkt.Proto)
	total := IPHeader + thdr + len(pkt.Payload)
	off := len(dst)
	// Not append(dst, make(...)...): a -race build allocates the make.
	dst = slices.Grow(dst, EtherHeader+total)[:off+EtherHeader+total]
	b := dst[off:]
	clear(b)

	// Ethernet: MACs are not modelled (zero), ethertype IPv4.
	binary.BigEndian.PutUint16(b[12:14], etherTypeIPv4)

	ip := b[EtherHeader:]
	ip[0] = 4
	binary.BigEndian.PutUint16(ip[1:3], clampU16(total))
	binary.BigEndian.PutUint32(ip[3:7], pkt.FragID)
	binary.BigEndian.PutUint16(ip[7:9], clampU16(pkt.FragOffset))
	if pkt.MoreFrags {
		ip[9] = ipMoreFrags
	}
	if pkt.TTL < 0 || pkt.TTL > 0xff {
		ip[10] = 0xff
	} else {
		ip[10] = byte(pkt.TTL)
	}
	ip[11] = pkt.Proto
	binary.BigEndian.PutUint32(ip[12:16], uint32(pkt.Src))
	binary.BigEndian.PutUint32(ip[16:20], uint32(pkt.Dst))

	t := ip[IPHeader:]
	switch pkt.Proto {
	case ProtoUDP:
		binary.BigEndian.PutUint16(t[0:2], pkt.SrcPort)
		binary.BigEndian.PutUint16(t[2:4], pkt.DstPort)
		binary.BigEndian.PutUint16(t[4:6], clampU16(UDPHeader+len(pkt.Payload)))
	case ProtoTCP:
		binary.BigEndian.PutUint16(t[0:2], pkt.SrcPort)
		binary.BigEndian.PutUint16(t[2:4], pkt.DstPort)
		binary.BigEndian.PutUint32(t[4:8], pkt.Seq)
		binary.BigEndian.PutUint32(t[8:12], pkt.Ack)
		t[12] = 5 << 4 // data offset: 5 words, no options
		t[13] = byte(pkt.Flags)
		binary.BigEndian.PutUint16(t[14:16], clampU16(pkt.Window))
	case ProtoICMP:
		t[0] = pkt.ICMPType
		binary.BigEndian.PutUint16(t[4:6], pkt.ICMPSeq)
	}
	copy(b[EtherHeader+IPHeader+thdr:], pkt.Payload)
	return dst
}

// ParsePacket decodes one wire frame into a Packet, validating every field:
// frame and header lengths, ethertype, IP version, and the total-length
// consistency that bounds the payload slice. It never panics on arbitrary
// input and the returned packet's payload aliases b (callers that keep the
// packet past the frame's lifetime must Clone).
func ParsePacket(b []byte) (*Packet, error) {
	pkt := &Packet{}
	if err := parsePacketInto(pkt, b, false); err != nil {
		return nil, err
	}
	return pkt, nil
}

// ParsePacketPooled decodes one wire frame into a pooled packet whose
// payload is copied into the packet's own buffer — the decoder for hot
// paths, where the frame buffer is reused and the packet flows into the RX
// queues. The caller owns the returned packet's single reference.
func ParsePacketPooled(b []byte) (*Packet, error) {
	pkt := AllocPacket()
	if err := parsePacketInto(pkt, b, true); err != nil {
		pkt.Release()
		return nil, err
	}
	return pkt, nil
}

// parsePacketInto decodes b into pkt; copyPayload selects whether the
// payload is copied into pkt's own buffer or aliases b.
func parsePacketInto(pkt *Packet, b []byte, copyPayload bool) error {
	if len(b) < EtherHeader+IPHeader {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooShort, len(b))
	}
	if et := binary.BigEndian.Uint16(b[12:14]); et != etherTypeIPv4 {
		return fmt.Errorf("%w: ethertype %#04x", ErrBadEtherType, et)
	}
	ip := b[EtherHeader:]
	if ip[0] != 4 {
		return fmt.Errorf("%w: %d", ErrBadIPVersion, ip[0])
	}
	proto := ip[11]
	thdr := transportHeaderLen(proto)
	total := int(binary.BigEndian.Uint16(ip[1:3]))
	if total < IPHeader+thdr {
		return fmt.Errorf("%w: total %d < headers %d", ErrBadLength, total, IPHeader+thdr)
	}
	if total > len(ip) {
		return fmt.Errorf("%w: total %d > frame %d", ErrBadLength, total, len(ip))
	}
	pkt.Proto = proto
	pkt.FragID = binary.BigEndian.Uint32(ip[3:7])
	pkt.FragOffset = int(binary.BigEndian.Uint16(ip[7:9]))
	pkt.MoreFrags = ip[9]&ipMoreFrags != 0
	pkt.TTL = int(ip[10])
	pkt.Src = IPAddr(binary.BigEndian.Uint32(ip[12:16]))
	pkt.Dst = IPAddr(binary.BigEndian.Uint32(ip[16:20]))
	t := ip[IPHeader:]
	switch proto {
	case ProtoUDP:
		pkt.SrcPort = binary.BigEndian.Uint16(t[0:2])
		pkt.DstPort = binary.BigEndian.Uint16(t[2:4])
		if udpLen := int(binary.BigEndian.Uint16(t[4:6])); udpLen != total-IPHeader {
			return fmt.Errorf("%w: udp length %d, ip carries %d", ErrBadLength, udpLen, total-IPHeader)
		}
	case ProtoTCP:
		pkt.SrcPort = binary.BigEndian.Uint16(t[0:2])
		pkt.DstPort = binary.BigEndian.Uint16(t[2:4])
		pkt.Seq = binary.BigEndian.Uint32(t[4:8])
		pkt.Ack = binary.BigEndian.Uint32(t[8:12])
		if off := int(t[12] >> 4); off != 5 {
			return fmt.Errorf("%w: tcp data offset %d words (options unsupported)", ErrBadLength, off)
		}
		pkt.Flags = TCPFlags(t[13])
		pkt.Window = int(binary.BigEndian.Uint16(t[14:16]))
	case ProtoICMP:
		pkt.ICMPType = t[0]
		pkt.ICMPSeq = binary.BigEndian.Uint16(t[4:6])
	}
	if copyPayload {
		pkt.SetPayload(t[thdr : total-IPHeader])
	} else {
		pkt.Payload = t[thdr : total-IPHeader]
	}
	return nil
}
