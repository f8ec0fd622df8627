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
//	transport: UDP(8) ports/length; TCP(20) ports/seq/ack/data offset/
//	           flags/window, then its options (SACK-permitted, window
//	           scale, SACK blocks); ICMP(8) type/seq — matching the
//	           header sizes the cost model charges for (Packet.WireSize).

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
	ErrBadOption     = errors.New("netstack: malformed TCP option")
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

// AppendPacket appends pkt's wire form to dst and returns the extended
// buffer: the header, then the payload. Fields wider in the struct than on
// the wire (TTL, Window, FragOffset) saturate; the parse side of a
// round-trip is therefore canonical.
func AppendPacket(dst []byte, pkt *Packet) []byte {
	return append(AppendHeader(dst, pkt), pkt.Payload...)
}

// AppendHeader appends the bytes of pkt's wire form that precede its
// payload — ethernet, IP and transport headers, TCP options included — and
// returns the extended buffer.
func AppendHeader(dst []byte, pkt *Packet) []byte {
	thdr := transportHeaderLen(pkt.Proto)
	if pkt.Proto == ProtoTCP {
		thdr += pkt.tcpOptionsLen()
	}
	off, n := len(dst), EtherHeader+IPHeader+thdr
	// Not append(dst, make(...)...): a -race build allocates the make.
	dst = slices.Grow(dst, n)[:off+n]
	b := dst[off:]
	clear(b)

	// Ethernet: MACs are not modelled (zero), ethertype IPv4.
	binary.BigEndian.PutUint16(b[12:14], etherTypeIPv4)

	ip := b[EtherHeader:]
	ip[0] = 4
	binary.BigEndian.PutUint16(ip[1:3], clampU16(IPHeader+thdr+len(pkt.Payload)))
	binary.BigEndian.PutUint32(ip[3:7], pkt.FragID)
	binary.BigEndian.PutUint16(ip[7:9], clampU16(int(pkt.FragOffset)))
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
		t[12] = byte(thdr/4) << 4 // data offset, in words
		t[13] = byte(pkt.Flags)
		binary.BigEndian.PutUint16(t[14:16], clampU16(pkt.Window))
		appendTCPOptions(t[TCPHeader:thdr], pkt)
	case ProtoICMP:
		t[0] = pkt.ICMPType
		binary.BigEndian.PutUint16(t[4:6], pkt.ICMPSeq)
	}
	return dst
}

// HeaderSum hashes the fields AppendHeader writes, and nothing else: what a
// frame's header says on the wire, without encoding it. The fields are
// packed into whole 64-bit words, each folded by foldWord. Each step is a
// bijection of the running value, so two headers that differ in one word
// always hash differently.
func (p *Packet) HeaderSum() uint64 {
	var ports uint64
	switch p.Proto {
	case ProtoUDP, ProtoTCP:
		ports = uint64(p.SrcPort)<<16 | uint64(p.DstPort)
	case ProtoICMP:
		ports = uint64(p.ICMPType)<<16 | uint64(p.ICMPSeq)
	}
	var more uint64
	if p.MoreFrags {
		more = 1
	}
	h := foldWord(14695981039346656037, uint64(p.Src)<<32|uint64(p.Dst))
	h = foldWord(h, uint64(p.FragID)<<32|uint64(uint32(p.FragOffset)))
	h = foldWord(h, uint64(uint32(p.TTL))<<32|ports)
	h = foldWord(h, uint64(len(p.Payload))<<16|more<<8|uint64(p.Proto))
	if p.Proto != ProtoTCP {
		return h
	}
	blocks := p.SACKBlocks()
	var opts uint64
	if p.SACKPermitted {
		opts |= 1
	}
	if p.WScaleOK {
		opts |= 2
	}
	h = foldWord(h, uint64(p.Seq)<<32|uint64(p.Ack))
	h = foldWord(h, uint64(uint32(p.Window))<<32|uint64(p.Flags)<<24|uint64(p.WScale)<<16|uint64(len(blocks))<<8|opts)
	for _, b := range blocks {
		h = foldWord(h, uint64(b.Start)<<32|uint64(b.End))
	}
	return h
}

// foldWord is one step of HeaderSum: FNV-1a's xor-and-multiply on a whole
// word, then a shift that brings the word's high bytes, which the multiply
// alone only carries upward, back into the low half.
func foldWord(h, w uint64) uint64 {
	h = (h ^ w) * 1099511628211
	return h ^ h>>32
}

// ParsePacket decodes one wire frame into a Packet, validating every field:
// frame and header lengths, ethertype, IP version, and the total-length
// consistency that bounds the payload slice. It never panics on arbitrary
// input and the returned packet's payload aliases b (callers that keep the
// packet past the frame's lifetime must Clone).
func ParsePacket(b []byte) (*Packet, error) {
	if len(b) < EtherHeader+IPHeader {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooShort, len(b))
	}
	if et := binary.BigEndian.Uint16(b[12:14]); et != etherTypeIPv4 {
		return nil, fmt.Errorf("%w: ethertype %#04x", ErrBadEtherType, et)
	}
	ip := b[EtherHeader:]
	if ip[0] != 4 {
		return nil, fmt.Errorf("%w: %d", ErrBadIPVersion, ip[0])
	}
	proto := ip[11]
	thdr := transportHeaderLen(proto)
	total := int(binary.BigEndian.Uint16(ip[1:3]))
	if total < IPHeader+thdr {
		return nil, fmt.Errorf("%w: total %d < headers %d", ErrBadLength, total, IPHeader+thdr)
	}
	if total > len(ip) {
		return nil, fmt.Errorf("%w: total %d > frame %d", ErrBadLength, total, len(ip))
	}
	pkt := &Packet{Proto: proto}
	pkt.FragID = binary.BigEndian.Uint32(ip[3:7])
	pkt.FragOffset = int32(binary.BigEndian.Uint16(ip[7:9]))
	pkt.MoreFrags = ip[9]&ipMoreFrags != 0
	pkt.TTL = int32(ip[10])
	pkt.Src = IPAddr(binary.BigEndian.Uint32(ip[12:16]))
	pkt.Dst = IPAddr(binary.BigEndian.Uint32(ip[16:20]))
	t := ip[IPHeader:]
	switch proto {
	case ProtoUDP:
		pkt.SrcPort = binary.BigEndian.Uint16(t[0:2])
		pkt.DstPort = binary.BigEndian.Uint16(t[2:4])
		if udpLen := int(binary.BigEndian.Uint16(t[4:6])); udpLen != total-IPHeader {
			return nil, fmt.Errorf("%w: udp length %d, ip carries %d", ErrBadLength, udpLen, total-IPHeader)
		}
	case ProtoTCP:
		pkt.SrcPort = binary.BigEndian.Uint16(t[0:2])
		pkt.DstPort = binary.BigEndian.Uint16(t[2:4])
		pkt.Seq = binary.BigEndian.Uint32(t[4:8])
		pkt.Ack = binary.BigEndian.Uint32(t[8:12])
		if thdr = int(t[12]>>4) * 4; thdr < TCPHeader || thdr > total-IPHeader {
			return nil, fmt.Errorf("%w: tcp data offset %d bytes, segment %d", ErrBadLength, thdr, total-IPHeader)
		}
		pkt.Flags = TCPFlags(t[13])
		pkt.Window = int(binary.BigEndian.Uint16(t[14:16]))
		if err := parseTCPOptions(pkt, t[TCPHeader:thdr]); err != nil {
			return nil, err
		}
	case ProtoICMP:
		pkt.ICMPType = t[0]
		pkt.ICMPSeq = binary.BigEndian.Uint16(t[4:6])
	}
	pkt.adoptPayload(t[thdr : total-IPHeader])
	return pkt, nil
}

// TCP option kinds (RFC 793, RFC 2018, RFC 7323).
const (
	optEOL           = 0
	optNOP           = 1
	optMSS           = 2
	optWScale        = 3
	optSACKPermitted = 4
	optSACK          = 5
)

// appendTCPOptions writes pkt's options into b, which is exactly
// pkt.tcpOptionsLen() bytes and cleared: back to back, the zeroes after them
// an EOL that pads the header to a word boundary. Packed, every option the
// parser reads fits the 40 bytes it was read from: SACK-permitted, a window
// scale and four SACK blocks take 39.
func appendTCPOptions(b []byte, pkt *Packet) {
	if pkt.SACKPermitted {
		b = b[copy(b, []byte{optSACKPermitted, 2}):]
	}
	if pkt.WScaleOK {
		b = b[copy(b, []byte{optWScale, 3, pkt.WScale}):]
	}
	blocks := pkt.SACKBlocks()
	if len(blocks) == 0 {
		return
	}
	copy(b, []byte{optSACK, byte(2 + 8*len(blocks))})
	for i, blk := range blocks {
		binary.BigEndian.PutUint32(b[2+8*i:], blk.Start)
		binary.BigEndian.PutUint32(b[6+8*i:], blk.End)
	}
}

// parseTCPOptions decodes the option bytes between the fixed header and the
// data offset. EOL ends the list and NOP pads it; MSS is read past (the
// stack's segment size is fixed) and so is any kind it does not know, by its
// length. A length below 2, an option running past the data offset, a
// SACK-permitted or window scale of the wrong length, or a SACK option with
// other than one to four blocks in all is rejected. A window shift is read
// as sent; the connection caps it (RFC 7323 §2.3).
func parseTCPOptions(pkt *Packet, b []byte) error {
	for i := 0; i < len(b); {
		kind := b[i]
		if kind == optEOL {
			return nil
		}
		if kind == optNOP {
			i++
			continue
		}
		if i+1 >= len(b) {
			return fmt.Errorf("%w: kind %d has no length byte", ErrBadOption, kind)
		}
		n := int(b[i+1])
		switch {
		case n < 2:
			return fmt.Errorf("%w: kind %d length %d", ErrBadOption, kind, n)
		case i+n > len(b):
			return fmt.Errorf("%w: kind %d length %d runs past the data offset", ErrBadOption, kind, n)
		}
		switch kind {
		case optSACKPermitted:
			if n != 2 {
				return fmt.Errorf("%w: SACK-permitted length %d", ErrBadOption, n)
			}
			pkt.SACKPermitted = true
		case optWScale:
			if n != 3 {
				return fmt.Errorf("%w: window scale length %d", ErrBadOption, n)
			}
			pkt.WScaleOK, pkt.WScale = true, b[i+2]
		case optSACK:
			k := (n - 2) / 8
			if (n-2)%8 != 0 || k == 0 || int(pkt.NumSACK)+k > MaxSACKBlocks {
				return fmt.Errorf("%w: SACK length %d with %d blocks before it", ErrBadOption, n, pkt.NumSACK)
			}
			for j := range k {
				at := i + 2 + 8*j
				pkt.SACK[pkt.NumSACK] = SACKBlock{binary.BigEndian.Uint32(b[at:]), binary.BigEndian.Uint32(b[at+4:])}
				pkt.NumSACK++
			}
		}
		i += n
	}
	return nil
}
