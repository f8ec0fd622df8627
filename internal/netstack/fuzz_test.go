package netstack

import (
	"bytes"
	"encoding/binary"
	"testing"

	"spin/internal/sim"
)

// FuzzParsePacket throws arbitrary bytes at the wire decoder. Any input may
// be rejected, but none may panic; an accepted packet must survive an
// encode/parse round trip unchanged (the parse is canonical).
func FuzzParsePacket(f *testing.F) {
	for _, pkt := range wireSamplePackets() {
		f.Add(AppendPacket(nil, pkt))
	}
	for _, tc := range wireOptionFrames() {
		f.Add(tcpFrame(tc.opts, "xyz"))
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, EtherHeader+IPHeader))
	// Window scale (RFC 7323) two bytes long, three, four, and with a shift
	// past the largest a connection takes.
	for _, opt := range [][]byte{{optNOP, optNOP, optWScale, 2}, {optNOP, optWScale, 3, 1}, {optWScale, 4, 1, 0}, {optNOP, optWScale, 3, 15}} {
		f.Add(tcpFrame(opt, "xyz"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pkt, err := ParsePacket(data)
		if err != nil {
			return
		}
		round, err := ParsePacket(AppendPacket(nil, pkt))
		if err != nil {
			t.Fatalf("re-parse of re-encoded packet failed: %v\npacket: %+v", err, pkt)
		}
		if !samePacket(pkt, round) {
			t.Fatalf("round trip changed packet:\n  first %+v\n  round %+v", pkt, round)
		}
		if a, b := pkt.HeaderSum(), round.HeaderSum(); a != b {
			t.Fatalf("equal headers sum to %#x and %#x:\n  first %+v\n  round %+v", a, b, pkt, round)
		}
	})
}

// FuzzParseDNSMessage throws arbitrary bytes at the DNS decoder — like
// the packet decoder it is an untrusted-input boundary. Any input may be
// rejected, but none may panic (compression pointers are the classic
// attack surface: loops, forward jumps, out-of-bounds targets); an
// accepted message must survive an encode/parse round trip unchanged,
// because the parse is canonical (names lower-cased and flattened).
func FuzzParseDNSMessage(f *testing.F) {
	seeds := []*DNSMessage{
		{ID: 1, RD: true, Questions: []DNSQuestion{{Name: "web.spin.test", Type: DNSTypeA}}},
		{ID: 2, Response: true, RA: true,
			Questions: []DNSQuestion{{Name: "web.spin.test", Type: DNSTypeA}},
			Answers:   []DNSRR{{Name: "web.spin.test", Type: DNSTypeA, TTL: 60, Data: []byte{10, 0, 0, 2}}}},
		{ID: 3, Response: true, RCode: DNSRCodeNXDomain,
			Questions: []DNSQuestion{{Name: "nope.spin.test", Type: DNSTypeA}}},
		{ID: 4, Questions: []DNSQuestion{{Name: "v6.spin.test", Type: DNSTypeAAAA}}},
	}
	for _, m := range seeds {
		wire, err := EncodeDNSMessage(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	// A compressed answer (pointer to the question name) and hostile
	// pointer shapes.
	f.Add([]byte{
		0x12, 0x34, 0x84, 0x80, 0, 1, 0, 1, 0, 0, 0, 0,
		3, 'w', 'e', 'b', 4, 's', 'p', 'i', 'n', 0, 0, 1, 0, 1,
		0xC0, 12, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 10, 0, 0, 2,
	})
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 12, 0, 1, 0, 1})
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, dnsHeaderLen))
	f.Add(longDNSQuery(62)) // one octet past the longest legal name
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseDNSMessage(data)
		if err != nil {
			return
		}
		wire, err := EncodeDNSMessage(m)
		if err != nil {
			t.Fatalf("re-encode of parsed message failed: %v\nmessage: %+v", err, m)
		}
		round, err := ParseDNSMessage(wire)
		if err != nil {
			t.Fatalf("re-parse of re-encoded message failed: %v\nmessage: %+v", err, m)
		}
		second, err := EncodeDNSMessage(round)
		if err != nil || !bytes.Equal(wire, second) {
			t.Fatalf("round trip not canonical (%v):\n  %x\n  %x", err, wire, second)
		}
	})
}

// FuzzFragmentReassembly drives the reassembly buffer with an arbitrary
// fragment stream decoded from the fuzz input: any offsets, lengths,
// more-fragments flags, sources and IDs, including the hostile shapes the
// wire can produce (ParsePacket bounds offsets at 64K, but reassembly must
// defend itself). Reassembly must never panic, never hand back an oversized
// datagram, and never retain a buffer past its final fragment.
//
// This target found two real bugs in the pre-hardened reassemble: a
// negative FragOffset panicked the payload copy, and a large offset let a
// single datagram allocate an unbounded buffer. Every fragment payload is
// filled with a marker byte, so a completed datagram containing anything
// else (a zero-filled hole) proves a third bug: counting duplicate or
// overlapping fragments toward completeness.
func FuzzFragmentReassembly(f *testing.F) {
	// One well-formed split of a 3KB datagram, plus adversarial shapes.
	var good []byte
	for off := 0; off < 3000; off += 1480 {
		end := off + 1480
		if end > 3000 {
			end = 3000
		}
		good = appendFragDesc(good, 1, 7, uint16(off), end < 3000, uint16(end-off))
	}
	f.Add(good)
	f.Add(appendFragDesc(nil, 1, 1, 0xffff, true, 0xff)) // offset at the bound
	f.Add(appendFragDesc(nil, 2, 9, 0, false, 0))        // empty final fragment
	f.Add(append(good, good...))                         // duplicate delivery
	// Overlap shapes: a duplicated head whose repeated bytes would complete
	// a 600-byte datagram with a hole at [400, 500) if overlaps were
	// double-counted, and a mid-stream overlap plus duplicate that does
	// legitimately complete.
	hole := appendFragDesc(nil, 1, 2, 0, true, 400)
	hole = appendFragDesc(hole, 1, 2, 0, true, 400)
	hole = appendFragDesc(hole, 1, 2, 500, false, 100)
	f.Add(hole)
	overlap := appendFragDesc(nil, 1, 3, 0, true, 400)
	overlap = appendFragDesc(overlap, 1, 3, 300, true, 200)
	overlap = appendFragDesc(overlap, 1, 3, 0, true, 400)
	overlap = appendFragDesc(overlap, 1, 3, 500, false, 100)
	f.Add(overlap)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newReassembly()
		now := sim.Time(0)
		keys := make(map[fragKey]bool)
		for len(data) >= 8 {
			src := IPAddr(data[0] % 4)
			id := uint32(data[1] % 4)
			off := int(binary.BigEndian.Uint16(data[2:4]))
			more := data[4]&1 != 0
			plen := int(binary.BigEndian.Uint16(data[5:7])) % 2048
			// Signed shapes: the stream can also ask for a negative
			// offset, which a hand-built Packet could carry.
			if data[7]&0x80 != 0 {
				off = -off
			}
			data = data[8:]
			payload := make([]byte, plen)
			for i := range payload {
				payload[i] = fragMarker
			}
			pkt := &Packet{
				Src: src, Dst: src, Proto: ProtoUDP,
				FragID: id, FragOffset: int32(off), MoreFrags: more,
				Payload: payload,
			}
			keys[fragKey{src: pkt.Src, id: pkt.FragID}] = true
			now = now.Add(sim.Microsecond)
			whole, waited := r.reassemble(pkt, now)
			if whole != nil {
				if len(whole.Payload) > MaxDatagram {
					t.Fatalf("reassembled %d bytes > MaxDatagram", len(whole.Payload))
				}
				if whole.MoreFrags || whole.FragOffset != 0 || whole.FragID != 0 {
					t.Fatalf("reassembled datagram still marked fragmented: %+v", whole)
				}
				if waited < 0 {
					t.Fatalf("negative reassembly latency %v", waited)
				}
				for i, v := range whole.Payload {
					if v != fragMarker {
						t.Fatalf("reassembled datagram has uncopied byte %#x at offset %d of %d: overlap/duplicate fragments were double-counted",
							v, i, len(whole.Payload))
					}
				}
			}
		}
		if r.Pending() > len(keys) {
			t.Fatalf("%d pending buffers from %d distinct datagram keys", r.Pending(), len(keys))
		}
	})
}

// fragMarker fills every fuzzed fragment payload; any other byte in a
// completed datagram is a hole the reassembler failed to detect.
const fragMarker = 0xA5

// appendFragDesc encodes one fragment descriptor in the fuzz stream format
// consumed above: src, id, offset(2), flags, length(2), pad.
func appendFragDesc(b []byte, src, id byte, off uint16, more bool, plen uint16) []byte {
	var moreB byte
	if more {
		moreB = 1
	}
	return append(b, src, id, byte(off>>8), byte(off), moreB, byte(plen>>8), byte(plen), 0)
}
