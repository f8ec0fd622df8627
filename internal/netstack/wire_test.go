package netstack

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"
)

func wireSamplePackets() []*Packet {
	return []*Packet{
		{Src: Addr(10, 0, 0, 1), Dst: Addr(10, 0, 0, 2), Proto: ProtoUDP,
			SrcPort: 4000, DstPort: 53, TTL: 32, Payload: []byte("query")},
		{Src: Addr(10, 0, 0, 2), Dst: Addr(10, 0, 0, 1), Proto: ProtoTCP,
			SrcPort: 80, DstPort: 5501, Seq: 1000, Ack: 2000,
			Flags: FlagSYN | FlagACK, Window: 32 * 1024, TTL: 32, Payload: []byte("hi")},
		{Src: Addr(192, 168, 0, 7), Dst: Addr(192, 168, 0, 9), Proto: ProtoICMP,
			ICMPType: 8, ICMPSeq: 7, TTL: 64, Payload: make([]byte, 56)},
		{Src: Addr(10, 0, 0, 3), Dst: Addr(10, 0, 0, 4), Proto: ProtoUDP,
			SrcPort: 9, DstPort: 9, TTL: 1, FragID: 42, FragOffset: 1480,
			MoreFrags: true, Payload: bytes.Repeat([]byte{0xab}, 512)},
		{Src: Addr(10, 0, 0, 1), Dst: Addr(10, 0, 0, 2), Proto: ProtoTCP,
			SrcPort: 30001, DstPort: 80, Seq: 100, Flags: FlagSYN, Window: 32 * 1024, TTL: 32,
			SACKPermitted: true},
		{Src: Addr(10, 0, 0, 2), Dst: Addr(10, 0, 0, 1), Proto: ProtoTCP,
			SrcPort: 80, DstPort: 30001, Seq: 1001, Ack: 101, Flags: FlagACK, Window: 32 * 1024, TTL: 32,
			NumSACK: 1, SACK: [MaxSACKBlocks]SACKBlock{{2561, 4021}}},
		{Src: Addr(10, 0, 0, 2), Dst: Addr(10, 0, 0, 1), Proto: ProtoTCP,
			SrcPort: 80, DstPort: 30001, Seq: 1001, Ack: 101, Flags: FlagACK, Window: 32 * 1024, TTL: 32,
			NumSACK: 4, SACK: [MaxSACKBlocks]SACKBlock{{9000, 9100}, {1, 2}, {0xfffffff0, 8}, {500, 700}},
			Payload: []byte("data rides behind four blocks")},
		{Src: Addr(10, 0, 0, 2), Dst: Addr(10, 0, 0, 1), Proto: ProtoTCP,
			SrcPort: 80, DstPort: 30001, Seq: 1000, Ack: 101, Flags: FlagSYN | FlagACK, Window: 32 * 1024, TTL: 32,
			SACKPermitted: true, NumSACK: 4, SACK: [MaxSACKBlocks]SACKBlock{{1, 2}, {3, 4}, {5, 6}, {7, 8}}},
		{Src: Addr(10, 0, 0, 2), Dst: Addr(10, 0, 0, 1), Proto: ProtoTCP,
			SrcPort: 80, DstPort: 30001, Seq: 1000, Ack: 101, Flags: FlagSYN | FlagACK, Window: 0xffff, TTL: 32,
			SACKPermitted: true, WScaleOK: true, WScale: 14},
		{Src: Addr(10, 0, 0, 2), Dst: Addr(10, 0, 0, 1), Proto: ProtoTCP,
			SrcPort: 80, DstPort: 30001, Seq: 1000, Ack: 101, Flags: FlagSYN | FlagACK, Window: 0xffff, TTL: 32,
			SACKPermitted: true, WScaleOK: true, WScale: 7,
			NumSACK: 4, SACK: [MaxSACKBlocks]SACKBlock{{1, 2}, {3, 4}, {5, 6}, {7, 8}}},
	}
}

// tcpFrame is a TCP frame whose header carries opts verbatim, the data
// offset counting them (opts must be a whole number of words).
func tcpFrame(opts []byte, payload string) []byte {
	b := AppendPacket(nil, &Packet{Src: Addr(10, 0, 0, 2), Dst: Addr(10, 0, 0, 1), Proto: ProtoTCP,
		SrcPort: 80, DstPort: 30001, Seq: 7, Ack: 9, Flags: FlagACK, Window: 1000, TTL: 32,
		Payload: []byte(payload)})
	at := EtherHeader + IPHeader + TCPHeader
	b = append(b[:at:at], append(opts, b[at:]...)...)
	binary.BigEndian.PutUint16(b[EtherHeader+1:], uint16(len(b)-EtherHeader))
	b[EtherHeader+IPHeader+12] = byte((TCPHeader+len(opts))/4) << 4
	return b
}

// wireOptionFrames are option lists another stack may send, each with the
// fields it must parse to: what the encoder never writes, it must still read.
func wireOptionFrames() []struct {
	name string
	opts []byte
	want Packet
} {
	sack := func(blocks ...SACKBlock) (p Packet) {
		p.NumSACK = uint8(copy(p.SACK[:], blocks))
		return p
	}
	return []struct {
		name string
		opts []byte
		want Packet
	}{
		{"mss-then-sack-permitted-then-eol", []byte{optMSS, 4, 0x05, 0xb4, optSACKPermitted, 2, optEOL, optEOL},
			Packet{SACKPermitted: true}},
		{"nop-padding-around-sack", []byte{optNOP, optNOP, optSACK, 10, 0, 0, 0, 10, 0, 0, 0, 20, optNOP, optNOP, optNOP, optNOP},
			sack(SACKBlock{10, 20})},
		{"unknown-kind-skipped-by-length", []byte{30, 6, 0xde, 0xad, 0xbe, 0xef, optSACKPermitted, 2},
			Packet{SACKPermitted: true}},
		{"eol-hides-what-follows", []byte{optEOL, 0xff, 0xff, 0xff},
			Packet{}},
		{"two-sack-options-add-up", []byte{optSACK, 10, 0, 0, 0, 1, 0, 0, 0, 2, optSACK, 10, 0, 0, 0, 3, 0, 0, 0, 4},
			sack(SACKBlock{1, 2}, SACKBlock{3, 4})},
		{"window-scale-unpadded-then-eol", []byte{optWScale, 3, 7, optEOL},
			Packet{WScaleOK: true, WScale: 7}},
		{"window-shift-past-14-read-as-sent", []byte{optNOP, optWScale, 3, 15},
			Packet{WScaleOK: true, WScale: 15}},
	}
}

// samePacket compares the wire-visible fields of two packets.
func samePacket(a, b *Packet) bool {
	return a.Src == b.Src && a.Dst == b.Dst && a.Proto == b.Proto &&
		a.SrcPort == b.SrcPort && a.DstPort == b.DstPort &&
		a.Seq == b.Seq && a.Ack == b.Ack && a.Flags == b.Flags &&
		a.Window == b.Window && a.ICMPType == b.ICMPType && a.ICMPSeq == b.ICMPSeq &&
		a.TTL == b.TTL && a.FragID == b.FragID && a.FragOffset == b.FragOffset &&
		a.MoreFrags == b.MoreFrags && bytes.Equal(a.Payload, b.Payload) &&
		a.SACKPermitted == b.SACKPermitted && a.WScaleOK == b.WScaleOK && a.WScale == b.WScale &&
		slices.Equal(a.SACKBlocks(), b.SACKBlocks())
}

func TestWireParsesForeignOptions(t *testing.T) {
	for _, tc := range wireOptionFrames() {
		got, err := ParsePacket(tcpFrame(tc.opts, "xyz"))
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got.SACKPermitted != tc.want.SACKPermitted || !slices.Equal(got.SACKBlocks(), tc.want.SACKBlocks()) ||
			got.WScaleOK != tc.want.WScaleOK || got.WScale != tc.want.WScale ||
			string(got.Payload) != "xyz" || got.Seq != 7 || got.Window != 1000 {
			t.Errorf("%s: parsed %+v", tc.name, got)
		}
		round, err := ParsePacket(AppendPacket(nil, got))
		if err != nil || !samePacket(got, round) {
			t.Errorf("%s: round trip %v\n  first %+v\n  round %+v", tc.name, err, got, round)
		}
	}
}

func TestWireRoundTrip(t *testing.T) {
	for i, pkt := range wireSamplePackets() {
		b := AppendPacket(nil, pkt)
		if len(b) != pkt.WireSize() {
			t.Errorf("packet %d: encoded %d bytes, WireSize %d", i, len(b), pkt.WireSize())
		}
		got, err := ParsePacket(b)
		if err != nil {
			t.Fatalf("packet %d: parse: %v", i, err)
		}
		if !samePacket(pkt, got) {
			t.Errorf("packet %d: round trip\n  sent %+v\n  got  %+v", i, pkt, got)
		}
	}
}

func TestParsePacketRejectsMalformed(t *testing.T) {
	good := AppendPacket(nil, wireSamplePackets()[0])
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrFrameTooShort},
		{"truncated-ip", func(b []byte) []byte { return b[:EtherHeader+3] }, ErrFrameTooShort},
		{"bad-ethertype", func(b []byte) []byte { b[12] = 0x86; return b }, ErrBadEtherType},
		{"bad-version", func(b []byte) []byte { b[EtherHeader] = 6; return b }, ErrBadIPVersion},
		{"total-past-frame", func(b []byte) []byte {
			b[EtherHeader+1] = 0xff
			b[EtherHeader+2] = 0xff
			return b
		}, ErrBadLength},
		{"total-below-headers", func(b []byte) []byte {
			b[EtherHeader+1] = 0
			b[EtherHeader+2] = 4
			return b
		}, ErrBadLength},
		{"udp-length-mismatch", func(b []byte) []byte {
			b[EtherHeader+IPHeader+4] = 0xee
			return b
		}, ErrBadLength},
	}
	for _, tc := range cases {
		b := tc.mutate(append([]byte(nil), good...))
		if _, err := ParsePacket(b); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	// A TCP header is sliced by its data offset and its options by their
	// lengths; none may reach past what holds it.
	offset := func(words byte) func([]byte) []byte {
		return func(b []byte) []byte { b[EtherHeader+IPHeader+12] = words << 4; return b }
	}
	sackOf := func(blocks int) []byte {
		return append([]byte{optNOP, optNOP, optSACK, byte(2 + 8*blocks)}, make([]byte, 8*blocks)...)
	}
	tcpCases := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"data-offset-4", offset(4)(tcpFrame(nil, "hi")), ErrBadLength},
		{"data-offset-past-total", offset(8)(tcpFrame(nil, "hi")), ErrBadLength},
		{"option-length-0", tcpFrame([]byte{30, 0, optNOP, optNOP}, ""), ErrBadOption},
		{"option-length-1", tcpFrame([]byte{30, 1, optNOP, optNOP}, ""), ErrBadOption},
		{"option-without-length", tcpFrame([]byte{optNOP, optNOP, optNOP, optSACKPermitted}, ""), ErrBadOption},
		{"option-overruns-data-offset", tcpFrame([]byte{30, 8, 0, 0}, "payload bytes are not options"), ErrBadOption},
		{"sack-permitted-length-3", tcpFrame([]byte{optSACKPermitted, 3, 0, optNOP}, ""), ErrBadOption},
		{"window-scale-length-2", tcpFrame([]byte{optNOP, optNOP, optWScale, 2}, ""), ErrBadOption},
		{"window-scale-length-4", tcpFrame([]byte{optWScale, 4, 7, 0}, ""), ErrBadOption},
		{"sack-length-not-whole-blocks", tcpFrame([]byte{optNOP, optNOP, optSACK, 6, 0, 0, 0, 0}, ""), ErrBadOption},
		// Forty option bytes hold four blocks, so a fifth always overruns.
		{"fifth-sack-block", tcpFrame(sackOf(5)[:40], ""), ErrBadOption},
		{"fifth-sack-block-in-a-second-option", tcpFrame(append(sackOf(4)[2:], optSACK, 10, 0, 0, 0, 0), ""), ErrBadOption},
	}
	for _, tc := range tcpCases {
		if _, err := ParsePacket(tc.frame); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestEncodeSaturatesWideFields(t *testing.T) {
	pkt := &Packet{Src: 1, Dst: 2, Proto: ProtoTCP, TTL: 4096, Window: 1 << 20,
		FragOffset: 1 << 20, Payload: []byte("x")}
	got, err := ParsePacket(AppendPacket(nil, pkt))
	if err != nil {
		t.Fatal(err)
	}
	if got.TTL != 255 || got.Window != 0xffff || got.FragOffset != 0xffff {
		t.Errorf("saturation: ttl=%d window=%d fragoff=%d", got.TTL, got.Window, got.FragOffset)
	}
}

// HeaderSum stands in for the header's wire bytes in the link digest, so it
// must see every field AppendHeader writes and nothing it does not. Each
// row changes one field of a packet: where the wire header changes, the sum
// must change; where it does not (payload bytes of the same length, SACK
// entries past NumSACK, pool state, fields another protocol's header
// carries), the sum must not.
func TestHeaderSumCoversEveryHeaderField(t *testing.T) {
	tcp := &Packet{Src: Addr(10, 0, 0, 1), Dst: Addr(10, 0, 0, 2), Proto: ProtoTCP,
		SrcPort: 30001, DstPort: 80, Seq: 1000, Ack: 2000, Flags: FlagACK, Window: 5000, TTL: 32,
		FragID: 9, FragOffset: 8, MoreFrags: true, SACKPermitted: true, WScaleOK: true, WScale: 7,
		NumSACK: 4, SACK: [MaxSACKBlocks]SACKBlock{{1, 2}, {3, 4}, {5, 6}, {7, 8}}, Payload: []byte("payload")}
	twoBlocks := *tcp
	twoBlocks.NumSACK = 2
	udp, icmp := wireSamplePackets()[0], wireSamplePackets()[2]
	type row struct {
		name string
		base *Packet
		wire bool // the change shows in AppendHeader's bytes
		edit func(*Packet)
	}
	rows := []row{
		{"src", tcp, true, func(p *Packet) { p.Src++ }},
		{"dst", tcp, true, func(p *Packet) { p.Dst++ }},
		{"proto", udp, true, func(p *Packet) { p.Proto = ProtoTCP }},
		{"tcp src port", tcp, true, func(p *Packet) { p.SrcPort++ }},
		{"tcp dst port", tcp, true, func(p *Packet) { p.DstPort++ }},
		{"udp src port", udp, true, func(p *Packet) { p.SrcPort++ }},
		{"udp dst port", udp, true, func(p *Packet) { p.DstPort++ }},
		{"ttl", tcp, true, func(p *Packet) { p.TTL++ }},
		{"frag id", tcp, true, func(p *Packet) { p.FragID++ }},
		{"frag offset", tcp, true, func(p *Packet) { p.FragOffset++ }},
		{"more frags", tcp, true, func(p *Packet) { p.MoreFrags = false }},
		{"payload length", tcp, true, func(p *Packet) { p.Payload = append(slices.Clip(p.Payload), 0) }},
		{"udp payload length", udp, true, func(p *Packet) { p.Payload = p.Payload[:len(p.Payload)-1] }},
		{"seq", tcp, true, func(p *Packet) { p.Seq++ }},
		{"ack", tcp, true, func(p *Packet) { p.Ack++ }},
		{"flags", tcp, true, func(p *Packet) { p.Flags |= FlagFIN }},
		{"window", tcp, true, func(p *Packet) { p.Window++ }},
		{"sack permitted", tcp, true, func(p *Packet) { p.SACKPermitted = false }},
		{"window scale offered", tcp, true, func(p *Packet) { p.WScaleOK = false }},
		{"window scale", tcp, true, func(p *Packet) { p.WScale++ }},
		{"num sack", tcp, true, func(p *Packet) { p.NumSACK-- }},
		{"num sack up", &twoBlocks, true, func(p *Packet) { p.NumSACK++ }},
		{"icmp type", icmp, true, func(p *Packet) { p.ICMPType = 0 }},
		{"icmp seq", icmp, true, func(p *Packet) { p.ICMPSeq++ }},

		{"payload byte", tcp, false, func(p *Packet) { p.Payload = []byte("Payload") }},
		{"sack entry past NumSACK", &twoBlocks, false, func(p *Packet) { p.SACK[3].End++ }},
		{"pool state", tcp, false, func(p *Packet) { p.pooled, p.refs, p.sum, p.summed = true, 3, 5, true }},
		{"ports of an icmp packet", icmp, false, func(p *Packet) { p.SrcPort, p.DstPort = 1, 2 }},
		{"tcp fields of a udp packet", udp, false, func(p *Packet) { p.Seq, p.Ack, p.Window, p.NumSACK = 1, 2, 3, 1 }},
		{"icmp fields of a tcp packet", tcp, false, func(p *Packet) { p.ICMPType, p.ICMPSeq = 8, 9 }},
	}
	for i := range MaxSACKBlocks {
		rows = append(rows,
			row{fmt.Sprintf("sack block %d start", i), tcp, true, func(p *Packet) { p.SACK[i].Start++ }},
			row{fmt.Sprintf("sack block %d end", i), tcp, true, func(p *Packet) { p.SACK[i].End++ }})
	}
	for _, r := range rows {
		p := *r.base
		r.edit(&p)
		if wire := !bytes.Equal(AppendHeader(nil, r.base), AppendHeader(nil, &p)); wire != r.wire {
			t.Errorf("%s: the wire header changed %v, want %v", r.name, wire, r.wire)
		}
		if changed := p.HeaderSum() != r.base.HeaderSum(); changed != r.wire {
			t.Errorf("%s: HeaderSum changed %v, want %v", r.name, changed, r.wire)
		}
	}
}
