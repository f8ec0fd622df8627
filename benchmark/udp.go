package main

import (
	"encoding/binary"
	"fmt"

	"spin"
	"spin/internal/bcode"
	"spin/internal/netstack"
	"spin/internal/sim"
	"spin/internal/vnet"
)

// udpPayload is the smallest payload that does not need padding on
// Ethernet: 14 + 20 + 8 + 18 + 4 = 64 bytes on the wire.
const udpPayload = 18

// udpBurst is how many datagrams are sent back to back before the topology
// is run dry.
const udpBurst = 32

// passAllFilter is a verified program that reads the packet context the way
// the canonical PR-10 filter does and passes everything it is shown here:
// it drops only UDP to port 7, which this workload never sends.
func passAllFilter() *bcode.Program {
	return bcode.New(
		bcode.LdCtx(3, netstack.CtxProto),
		bcode.JneImm(3, int32(netstack.ProtoUDP), 3),
		bcode.LdCtx(4, netstack.CtxDstPort),
		bcode.JneImm(4, 7, 1),
		bcode.Ja(2),
		bcode.MovImm(0, 0),
		bcode.Exit(),
		bcode.MovImm(0, 1),
		bcode.Exit(),
	)
}

// udpFlood sends minimum-size datagrams h0 -> h1 through one switch; h1
// runs the XDP program on every one and checks sequence and content.
type udpFlood struct {
	netInstance
	datagrams int
	sender    *spin.Machine
	xdp       *netstack.XDPFilter
	dst       netstack.IPAddr
	payload   [udpPayload]byte

	next      uint64 // next sequence number to send
	delivered uint64 // datagrams that arrived in order and intact
	bad       uint64 // datagrams that arrived out of order or altered
}

func setupUDP(seed uint64, sc scale) (instance, error) {
	in, err := vnet.Star(2, vnet.LinkModel{Latency: 50 * sim.Microsecond}, seed)
	if err != nil {
		return nil, err
	}
	u := &udpFlood{datagrams: sc.pick(1<<17, 1<<8), sender: in.Machine("h0"), dst: in.IP("h1")}
	u.adopt(in)
	rng := sim.NewRand(seed)
	for i := 8; i < udpPayload; i++ {
		u.payload[i] = byte(rng.Intn(256))
	}
	recv := in.Machine("h1").Stack
	if u.xdp, err = recv.AttachXDP("bench-pass-all", passAllFilter()); err != nil {
		return nil, err
	}
	want := u.payload
	err = recv.UDP().Bind(9, netstack.InKernelDelivery, func(pkt *netstack.Packet) {
		binary.BigEndian.PutUint64(want[:8], u.delivered+u.bad)
		if string(pkt.Payload) == string(want[:]) {
			u.delivered++
		} else {
			u.bad++
		}
	})
	if err != nil {
		return nil, err
	}
	if st, err := u.run(sc.pick(1<<16, 1<<6)); err != nil || st.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d failed, err %v", st.failed, err)
	}
	return u, nil
}

func (u *udpFlood) batch() (batchStats, error) { return u.run(u.datagrams) }

func (u *udpFlood) run(datagrams int) (batchStats, error) {
	st := batchStats{ops: datagrams}
	cluster := u.in.Cluster()
	delivered, bad := u.delivered, u.bad
	runs, drops := u.xdp.Stats()
	start := clusterNow(cluster)
	for sent := 0; sent < datagrams; {
		for b := 0; b < udpBurst && sent < datagrams; b++ {
			binary.BigEndian.PutUint64(u.payload[:8], u.next)
			if err := u.sender.Stack.UDP().Send(100, u.dst, 9, u.payload[:]); err != nil {
				return st, err
			}
			u.next++
			sent++
		}
		st.events += stepAll(cluster)
	}
	st.virt = clusterNow(cluster).Sub(start)
	// Delivered == sent, each one seen by the XDP program, none dropped.
	runs2, drops2 := u.xdp.Stats()
	if got := int(u.delivered - delivered); got != datagrams || u.bad != bad || runs2-runs != int64(datagrams) || drops2 != drops {
		st.fail("%d datagrams sent: %d delivered intact and in order, %d not; XDP saw %d and dropped %d",
			datagrams, got, u.bad-bad, runs2-runs, drops2-drops)
		// Every datagram not delivered intact failed; if all were but the
		// XDP counters are off, none of them can be trusted.
		if st.failed = datagrams - got; st.failed == 0 {
			st.failed = datagrams
		}
	}
	return st, nil
}
