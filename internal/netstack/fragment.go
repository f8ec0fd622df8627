package netstack

import (
	"spin/internal/sal"
	"spin/internal/sim"
)

// IP fragmentation and reassembly. Datagrams larger than the outbound
// medium's MTU are split into fragments at the IP layer and reassembled at
// the destination before transport processing — so UDP endpoints see whole
// datagrams regardless of media (the paper's ATM bandwidth test sends
// 8132-byte packets; over Ethernet the same datagram fragments).

// EthernetMTU is the classic 1500-byte IP MTU.
const EthernetMTU = 1500

// mtuFor returns the IP MTU of a NIC's medium: cell-based media (ATM AAL5)
// carry large frames natively; Ethernet-like media are limited.
func mtuFor(nic *sal.NIC) int {
	if nic.Model.CellSize > 0 {
		return 9180 // ATM AAL5 default IP MTU
	}
	return EthernetMTU
}

// fragment state on Packet: FragID groups fragments of one datagram,
// FragOffset is the payload offset, MoreFrags marks non-final fragments.
// (Fields live on Packet in packet.go.)

// Reassembly bounds: a partial datagram older than ReasmTTL (virtual time
// since its first fragment) is evicted when the next datagram starts, and
// at most maxPending partial datagrams are held (oldest evicted first). Both
// bounds exist because UDP has no recovery — a single lost fragment would
// otherwise pin its buffer forever.
const (
	ReasmTTL   = 500 * sim.Millisecond
	maxPending = 512
)

// reassembly buffers partially arrived datagrams, keyed by (src, id), in one
// table.
type reassembly struct {
	parts agedTable[fragKey, *fragBuffer]
}

type fragKey struct {
	src IPAddr
	id  uint32
}

// byteRange is a covered half-open payload interval [start, end).
type byteRange struct{ start, end int }

type fragBuffer struct {
	data []byte
	// covered is the sorted, merged list of payload intervals actually
	// written by arrived fragments. received is their union size — a
	// duplicate or overlapping fragment contributes only its newly covered
	// bytes, so retransmissions can never fake completeness.
	covered  []byteRange
	received int
	total    int // total payload length; -1 until the final fragment
	template Packet
	firstAt  sim.Time // arrival of the first fragment, for latency
}

// addCovered merges [start, end) into the covered list and returns how many
// bytes were newly covered.
func (b *fragBuffer) addCovered(start, end int) int {
	if end <= start {
		return 0
	}
	merged := make([]byteRange, 0, len(b.covered)+1)
	add := byteRange{start, end}
	fresh := end - start
	i := 0
	for ; i < len(b.covered) && b.covered[i].end < add.start; i++ {
		merged = append(merged, b.covered[i])
	}
	for ; i < len(b.covered) && b.covered[i].start <= add.end; i++ {
		r := b.covered[i]
		// Subtract the overlap with the existing range from the fresh count.
		lo, hi := max(add.start, r.start), min(add.end, r.end)
		if hi > lo {
			fresh -= hi - lo
		}
		if r.start < add.start {
			add.start = r.start
		}
		if r.end > add.end {
			add.end = r.end
		}
	}
	merged = append(merged, add)
	merged = append(merged, b.covered[i:]...)
	b.covered = merged
	b.received += fresh
	return fresh
}

// complete reports whether the payload [0, total) is contiguously covered.
// Counting alone is not enough: without the contiguity check a stream that
// covers [100, 700) would "complete" a 600-byte datagram with a zero-filled
// hole at the front.
func (b *fragBuffer) complete() bool {
	return b.total >= 0 && len(b.covered) > 0 &&
		b.covered[0].start == 0 && b.covered[0].end >= b.total
}

// MaxDatagram bounds a reassembled datagram's payload (the IP total-length
// field is 16 bits). Fragments claiming offsets beyond it are malformed —
// from a hostile or corrupted header — and are dropped rather than allowed
// to grow the buffer without bound.
const MaxDatagram = 64 << 10

func newReassembly() *reassembly {
	return &reassembly{parts: agedTable[fragKey, *fragBuffer]{ttl: ReasmTTL, max: maxPending}}
}

// sendFragmented splits pkt into MTU-sized fragments and transmits each.
// Each fragment is a pooled packet with its own payload copy (a fragment in
// flight must not alias the original, which is released here); the
// reference the caller donated for pkt is consumed.
func (s *Stack) sendFragmented(pkt *Packet, nic *sal.NIC, mtu int) error {
	transportHdr := pkt.WireSize() - EtherHeader - IPHeader - len(pkt.Payload)
	maxPayload := mtu - IPHeader - transportHdr
	if maxPayload <= 0 {
		maxPayload = mtu / 2
	}
	s.fragID++
	id := s.fragID
	payload := pkt.Payload
	for off := 0; off < len(payload); off += maxPayload {
		end := off + maxPayload
		if end > len(payload) {
			end = len(payload)
		}
		frag := AllocPacket()
		frag.CopyHeaderFrom(pkt)
		frag.SetPayload(payload[off:end])
		frag.FragID = id
		frag.FragOffset = int32(off)
		frag.MoreFrags = end < len(payload)
		// Per-fragment IP header build.
		s.clock.Advance(s.profile.ProtoLayer / 2)
		if err := nic.Send(sal.NetFrame{Size: frag.WireSize(), Payload: frag}); err != nil {
			frag.Release()
			pkt.Release()
			return err
		}
	}
	pkt.Release()
	return nil
}

// reassemble accepts one fragment at virtual time now; it returns the whole
// datagram when complete (with the latency since its first fragment), or
// nil while fragments are outstanding. Malformed fragments — negative
// offsets, or an end past MaxDatagram — are dropped: found by
// FuzzFragmentReassembly, a negative offset previously panicked the copy
// below and an oversized offset let one datagram allocate without bound.
func (r *reassembly) reassemble(pkt *Packet, now sim.Time) (*Packet, sim.Duration) {
	off := int(pkt.FragOffset)
	if off < 0 || off > MaxDatagram || off+len(pkt.Payload) > MaxDatagram {
		return nil, 0
	}
	key := fragKey{src: pkt.Src, id: pkt.FragID}
	buf, ok := r.parts.get(key)
	if !ok {
		// A new datagram starting: put evicts what the TTL says is dead,
		// then makes room under the cap.
		buf = &fragBuffer{total: -1, template: *pkt, firstAt: now}
		r.parts.put(key, buf, now)
	}
	end := off + len(pkt.Payload)
	if end > len(buf.data) {
		grown := make([]byte, end)
		copy(grown, buf.data)
		buf.data = grown
	}
	copy(buf.data[off:], pkt.Payload)
	buf.addCovered(off, end)
	if !pkt.MoreFrags {
		buf.total = end
	}
	if buf.complete() {
		r.parts.delete(key)
		// The whole datagram is a pooled packet adopting the buffer the
		// reassembler built — no final copy. The caller (receive1) owns
		// the reference and releases it after delivery.
		whole := AllocPacket()
		whole.CopyHeaderFrom(&buf.template)
		whole.adoptPayload(buf.data[:buf.total])
		whole.FragID = 0
		whole.FragOffset = 0
		whole.MoreFrags = false
		return whole, now.Sub(buf.firstAt)
	}
	return nil, 0
}

// Pending reports datagrams awaiting fragments.
func (r *reassembly) Pending() int {
	return r.parts.len()
}

// Evicted reports partial datagrams dropped by the TTL or the pending cap.
func (r *reassembly) Evicted() int64 {
	return r.parts.evicted
}
