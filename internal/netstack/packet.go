// Package netstack implements SPIN's network protocol architecture (paper
// §5.3, Figure 5): a protocol graph in which each incoming packet is
// "pushed" through by events and "pulled" by handlers. Handlers at the top
// of the graph can process a message entirely within the kernel — that is
// what the forwarder, HTTP, video and active-message extensions in this
// package do — or copy it out to an application (which is what the OSF/1
// baseline models).
//
// The stack is real: IP with per-protocol guarded dispatch, ICMP echo, UDP
// ports, and a compact TCP with handshake, sliding window, retransmission
// and slow start. Costs are charged to the owning machine's virtual clock;
// frames travel between machines over sal NIC/link models.
package netstack

import (
	"fmt"
	"runtime"
	"sync"
	"weak"
)

// IPAddr is an IPv4-style address.
type IPAddr uint32

// Addr builds an address from dotted quads.
func Addr(a, b, c, d byte) IPAddr {
	return IPAddr(a)<<24 | IPAddr(b)<<16 | IPAddr(c)<<8 | IPAddr(d)
}

func (a IPAddr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// IP protocol numbers.
const (
	ProtoICMP uint8 = 1
	ProtoTCP  uint8 = 6
	ProtoUDP  uint8 = 17
)

// TCPFlags is the TCP flag set.
type TCPFlags uint8

// TCP flags.
const (
	FlagSYN TCPFlags = 1 << iota
	FlagACK
	FlagFIN
	FlagRST
)

func (f TCPFlags) String() string {
	s := ""
	if f&FlagSYN != 0 {
		s += "S"
	}
	if f&FlagACK != 0 {
		s += "A"
	}
	if f&FlagFIN != 0 {
		s += "F"
	}
	if f&FlagRST != 0 {
		s += "R"
	}
	if s == "" {
		s = "-"
	}
	return s
}

// Header sizes in bytes.
const (
	EtherHeader = 14
	IPHeader    = 20
	UDPHeader   = 8
	TCPHeader   = 20
	ICMPHeader  = 8
)

// MaxSACKBlocks is how many SACK blocks one segment carries: four fill the
// 40 option bytes a TCP header has room for (RFC 2018 §3).
const MaxSACKBlocks = 4

// SACKBlock is one contiguous range of sequence space the receiver holds,
// [Start, End).
type SACKBlock struct{ Start, End uint32 }

// Packet is one packet traversing the graph. It carries all layers' fields
// at once (the simulation passes the object by reference; only sizes affect
// timing).
type Packet struct {
	Src, Dst IPAddr
	Proto    uint8

	// Transport.
	SrcPort, DstPort uint16

	// TCP.
	Seq, Ack uint32
	Flags    TCPFlags
	Window   int
	// TCP options (RFC 2018, RFC 7323). SACKPermitted, and with WScaleOK the
	// window shift WScale, are offered on a SYN or SYN|ACK; the first
	// NumSACK entries of SACK are the blocks an ACK reports.
	SACKPermitted bool
	WScaleOK      bool
	WScale        uint8
	NumSACK       uint8
	SACK          [MaxSACKBlocks]SACKBlock

	// ICMP.
	ICMPType uint8 // 8 echo request, 0 echo reply
	ICMPSeq  uint16

	Payload []byte
	// sum is a hash of Payload, kept by PayloadSum while summed is set.
	// Every write to the payload clears summed.
	sum    uint64
	summed bool

	// TTL guards against forwarding loops.
	TTL int32

	// IP fragmentation: FragID groups the fragments of one datagram,
	// FragOffset is this fragment's payload offset, MoreFrags marks
	// non-final fragments.
	FragID     uint32
	FragOffset int32
	MoreFrags  bool

	// Pool state. pooled marks packets from AllocPacket; refs is their
	// reference count, kept by the owner of the topology the packet
	// crosses (copies clear it). Both are zero on ordinary &Packet{}
	// literals, which makes Retain/Release strict no-ops for them.
	pooled bool
	refs   int32
}

// Pooled, refcounted packets. At C10M rates the receive path cannot afford
// one garbage-collected Packet (plus payload) per segment: steady-state
// delivery must run at zero allocations per packet. Packets that flow
// through the wire or the RX queues therefore come from a free list and
// carry a reference count.
//
// Ownership protocol:
//
//   - AllocPacket returns a packet with one reference, owned by the caller.
//   - Handing a packet to SendIP / NIC.Send / enqueueRX donates that
//     reference: the stack releases it after transmission or delivery
//     (including the drop paths — full RX queue, no route, a lossy link).
//   - Handlers reached during delivery borrow the packet: its payload is
//     valid only for the duration of the callback. A handler that keeps
//     data must copy it (every in-tree handler does), and one that re-sends
//     the packet itself must Clone or Retain.
//   - Release on a non-pooled packet is a no-op, so tests and benchmarks
//     may still inject plain &Packet{} literals (even the same one
//     repeatedly).
//
// The free list is kept under a mutex, not in a sync.Pool. A sync.Pool
// keeps a cache per processor and rebuilds its storage after every
// collection, so how many objects a replayed run allocates would depend on
// the processor its goroutine is scheduled on. Here a replay allocates the
// same count every time: no packet once the list holds its peak, and three
// objects (the young generation's storage) for each collection. Like a
// sync.Pool it keeps two generations, so that what the program stopped
// using is freed: young holds the packets released since the collector
// last ran, and old, reachable only through a weak pointer, those released
// in the cycle before, so that the next collection frees what is left of
// them.
var packets struct {
	sync.Mutex
	young     *freePackets // nil until the first Release after a collection
	youngWeak weak.Pointer[freePackets]
	youngCap  int // the capacity the last young generation grew to
	old       weak.Pointer[freePackets]
	live      int64 // handed out by AllocPacket and not yet released for the last time
}

// freePackets is one generation of the free list.
type freePackets struct{ list []*Packet }

func (f *freePackets) pop() *Packet {
	n := len(f.list) - 1
	p := f.list[n]
	f.list[n], f.list = nil, f.list[:n]
	return p
}

// collectorWatch is an object nothing refers to. Its finalizer runs once
// after every collection and sets itself again.
type collectorWatch struct{ _ *byte }

func init() { runtime.SetFinalizer(new(collectorWatch), ageFreePackets) }

// ageFreePackets makes the young generation old; the old one, which only
// the weak pointer reached, is the collector's already. It allocates
// nothing, so however late after the collection it runs, the new young
// generation is made by the next Release, on the goroutine that releases.
func ageFreePackets(w *collectorWatch) {
	packets.Lock()
	if packets.young != nil {
		packets.youngCap = cap(packets.young.list)
		packets.old, packets.young = packets.youngWeak, nil
	}
	packets.Unlock()
	runtime.SetFinalizer(w, ageFreePackets)
}

// maxPooledPayload bounds the payload capacity a packet keeps when it
// returns to the pool; larger buffers (reassembled jumbo datagrams) are
// dropped for the GC so the pool holds only MTU-scale memory.
const maxPooledPayload = 16 << 10

// AllocPacket returns a zeroed packet from the pool with one reference,
// owned by the caller. Pass it to a send/enqueue entry point (donating the
// reference) or Release it.
func AllocPacket() *Packet {
	packets.Lock()
	packets.live++
	var p *Packet
	// Young first, so that what the run has stopped needing stays in old
	// and goes.
	if y := packets.young; y != nil && len(y.list) > 0 {
		p = y.pop()
	} else if old := packets.old.Value(); old != nil && len(old.list) > 0 {
		p = old.pop()
	}
	packets.Unlock()
	if p == nil {
		p = new(Packet)
	}
	p.pooled = true
	p.refs = 1
	return p
}

// LivePackets reports how many pooled packets are held, process-wide: by
// queues, by the wire, by a TCP connection's out-of-order queue. A run left
// to finish returns it to where it started; anything more is a leak.
// Separate topologies may run on separate goroutines at once, so the count
// and the free list are kept under one mutex; one simulation runs on one
// goroutine, so it is uncontended.
func LivePackets() int64 {
	packets.Lock()
	defer packets.Unlock()
	return packets.live
}

// Retain adds a reference and returns p, for handing the same packet to a
// second owner. No-op on non-pooled packets.
func (p *Packet) Retain() *Packet {
	if p.pooled {
		p.refs++
	}
	return p
}

// Release drops one reference; the last release zeroes the packet and
// returns it (payload buffer included) to the pool. Strict no-op for
// packets not obtained from AllocPacket.
func (p *Packet) Release() {
	if !p.pooled {
		return
	}
	p.refs--
	if p.refs > 0 {
		return
	}
	if p.refs < 0 {
		panic("netstack: Packet released more times than retained")
	}
	payload := p.Payload
	if cap(payload) > maxPooledPayload {
		payload = nil
	}
	*p = Packet{Payload: payload[:0]}
	packets.Lock()
	packets.live--
	if packets.young == nil {
		packets.young = &freePackets{list: make([]*Packet, 0, packets.youngCap)}
		packets.youngWeak = weak.Make(packets.young)
	}
	packets.young.list = append(packets.young.list, p)
	packets.Unlock()
}

// SetPayload copies b into the packet's own buffer (reusing pooled
// capacity), so the caller keeps ownership of b.
func (p *Packet) SetPayload(b []byte) {
	p.Payload = append(p.Payload[:0], b...)
	p.summed = false
}

// AllocPayload sets the payload to n zero bytes, reusing the packet's
// buffer when it is large enough, and returns the slice.
func (p *Packet) AllocPayload(n int) []byte {
	if cap(p.Payload) < n {
		p.Payload = make([]byte, n)
	} else {
		p.Payload = p.Payload[:n]
		for i := range p.Payload {
			p.Payload[i] = 0
		}
	}
	p.summed = false
	return p.Payload
}

// adoptPayload hands the packet ownership of buf directly (no copy) — for
// reassembly, which built the buffer itself and discards it afterwards.
func (p *Packet) adoptPayload(buf []byte) {
	p.Payload = buf
	p.summed = false
}

// PayloadSum returns hash(p.Payload), calling hash at most once until the
// payload is next written: a frame's payload is hashed once per packet
// however many links it crosses. Code that writes Payload's bytes in place
// rather than through SetPayload or AllocPayload calls PayloadWritten.
func (p *Packet) PayloadSum(hash func([]byte) uint64) uint64 {
	if !p.summed {
		p.sum, p.summed = hash(p.Payload), true
	}
	return p.sum
}

// PayloadWritten drops the sum PayloadSum keeps, after Payload's bytes
// were changed in place.
func (p *Packet) PayloadWritten() { p.summed = false }

// CopyHeaderFrom copies every header field of src into p, leaving p's
// payload (with its sum) and pool state untouched.
func (p *Packet) CopyHeaderFrom(src *Packet) {
	payload, sum, summed, pooled, refs := p.Payload, p.sum, p.summed, p.pooled, p.refs
	*p = *src
	p.Payload, p.sum, p.summed, p.pooled, p.refs = payload, sum, summed, pooled, refs
}

// WireSize returns the packet's size on the wire including link, network
// and transport headers.
func (p *Packet) WireSize() int {
	n := EtherHeader + IPHeader + len(p.Payload)
	switch p.Proto {
	case ProtoUDP:
		n += UDPHeader
	case ProtoTCP:
		n += TCPHeader + p.tcpOptionsLen()
	case ProtoICMP:
		n += ICMPHeader
	}
	return n
}

// SACKBlocks returns the SACK blocks the segment carries.
func (p *Packet) SACKBlocks() []SACKBlock { return p.SACK[:min(int(p.NumSACK), MaxSACKBlocks)] }

// tcpOptionsLen is the option bytes the TCP header carries: SACK-permitted
// in 2, window scale in 3 and SACK in 2 plus 8 a block, back to back and
// padded to a 4-byte boundary.
func (p *Packet) tcpOptionsLen() int {
	n := 0
	if p.SACKPermitted {
		n += 2
	}
	if p.WScaleOK {
		n += 3
	}
	if k := len(p.SACKBlocks()); k > 0 {
		n += 2 + 8*k
	}
	return (n + 3) &^ 3
}

// Clone returns a deep copy (payload included); forwarding and multicast
// paths copy so that later mutation does not alias. The clone is a fresh
// pooled packet with its own single reference.
func (p *Packet) Clone() *Packet {
	q := AllocPacket()
	q.CopyHeaderFrom(p)
	q.SetPayload(p.Payload)
	return q
}

func (p *Packet) String() string {
	proto := "?"
	switch p.Proto {
	case ProtoICMP:
		proto = "icmp"
	case ProtoTCP:
		proto = "tcp"
	case ProtoUDP:
		proto = "udp"
	}
	return fmt.Sprintf("%s %v:%d->%v:%d len=%d", proto, p.Src, p.SrcPort, p.Dst, p.DstPort, len(p.Payload))
}
