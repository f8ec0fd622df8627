package vnet

import (
	"encoding/binary"
	"io"

	"spin/internal/netstack"
	"spin/internal/sal"
	"spin/internal/sim"
)

// pcap classic capture format (little-endian), readable by tshark/tcpdump/
// Wireshark: a 24-byte global header followed by per-record headers with
// second/microsecond timestamps. Virtual time maps directly: sim.Time is
// nanoseconds since boot, so a capture of a simulated exchange opens as a
// capture taken at the epoch.
const (
	pcapMagic     = 0xa1b2c3d4
	pcapVerMajor  = 2
	pcapVerMinor  = 4
	pcapSnapLen   = 65535
	pcapEthernet  = 1 // LINKTYPE_ETHERNET
	pcapHdrLen    = 24
	pcapRecHdrLen = 16
)

// Capture writes frames in pcap classic format. One Capture may serve both
// directions of a link (or several links); records are written in transmit
// order, which is deterministic under the cluster's conservative stepping.
type Capture struct {
	w       io.Writer
	err     error
	records int
	scratch []byte
}

// NewCapture writes the pcap global header to w and returns the capture.
// The first write error is latched and reported by Err; later records are
// discarded.
func NewCapture(w io.Writer) *Capture {
	c := &Capture{w: w}
	var hdr [pcapHdrLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], pcapMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], pcapVerMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], pcapVerMinor)
	// thiszone, sigfigs: zero.
	binary.LittleEndian.PutUint32(hdr[16:20], pcapSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], pcapEthernet)
	_, c.err = w.Write(hdr[:])
	return c
}

// record writes one frame delivered at virtual time t: a netstack packet's
// header wire bytes, encoded into the capture's scratch buffer because a
// switch changes them on every hop, then its payload; a foreign payload is
// its size. Only a capture marshals a header: the digest hashes a packet's
// fields (netstack's HeaderSum covers exactly the fields AppendHeader
// writes).
func (c *Capture) record(t sim.Time, f sal.NetFrame) {
	if c.err != nil {
		return
	}
	var payload []byte
	if pkt, ok := f.Payload.(*netstack.Packet); ok {
		c.scratch, payload = netstack.AppendHeader(c.scratch[:0], pkt), pkt.Payload
	} else {
		c.scratch = binary.LittleEndian.AppendUint64(c.scratch[:0], uint64(f.Size))
	}
	size := len(c.scratch) + len(payload)
	n := min(size, pcapSnapLen)
	var hdr [pcapRecHdrLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(t/sim.Time(sim.Second)))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(t%sim.Time(sim.Second))/1000)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(n))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(size))
	if _, c.err = c.w.Write(hdr[:]); c.err != nil {
		return
	}
	// A header is shorter than the snap length; only a payload is cut.
	for _, b := range [2][]byte{c.scratch, payload[:n-len(c.scratch)]} {
		if _, c.err = c.w.Write(b); c.err != nil {
			return
		}
	}
	c.records++
}

// Records reports how many frames have been written.
func (c *Capture) Records() int { return c.records }

// Err reports the first write error, if any.
func (c *Capture) Err() error { return c.err }
