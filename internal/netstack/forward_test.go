package netstack

import (
	"testing"

	"spin/internal/sal"
	"spin/internal/sim"
)

// routerTriple wires a — r — b: the router machine has one NIC per segment,
// IP forwarding enabled, and routes programmed for both ends.
func routerTriple(t *testing.T) (a, r, b *host, cl *sim.Cluster) {
	t.Helper()
	a = newNetHost(t, "a", Addr(10, 0, 1, 1), sal.LanceModel)
	r = newNetHost(t, "r", Addr(10, 0, 0, 254), sal.LanceModel)
	b = newNetHost(t, "b", Addr(10, 0, 2, 1), sal.LanceModel)
	// Second router NIC on its own vector, attached to the same stack.
	rnic2 := sal.NewNIC(sal.LanceModel, r.eng, r.ic, sal.VecNIC0+1)
	r.stack.Attach(rnic2)
	if err := sal.Connect(a.nic, r.nic); err != nil {
		t.Fatal(err)
	}
	if err := sal.Connect(rnic2, b.nic); err != nil {
		t.Fatal(err)
	}
	r.stack.AddRoute(a.stack.IP, r.nic)
	r.stack.AddRoute(b.stack.IP, rnic2)
	r.stack.EnableForwarding(true)
	// End hosts: single NIC, default route suffices.
	return a, r, b, sim.NewCluster(a.eng, r.eng, b.eng)
}

func TestForwardingRoutesTransitTraffic(t *testing.T) {
	a, r, b, cl := routerTriple(t)
	var rtt sim.Duration
	if err := a.stack.Ping(b.stack.IP, 1, 16, func(d sim.Duration) { rtt = d }); err != nil {
		t.Fatal(err)
	}
	cl.Run(0)
	if rtt == 0 {
		t.Fatal("no ping reply across the router")
	}
	// Request and reply both transit the router.
	if got := counter(r.stack, "net_forwarded"); got != 2 {
		t.Errorf("router forwarded %d packets, want 2", got)
	}
	if got := counter(r.stack, "net_ttl_expired"); got != 0 {
		t.Errorf("router expired %d TTLs, want 0", got)
	}
	// A direct pair ping must be cheaper than the two-hop path.
	da, db, dcl := pair(t, sal.LanceModel)
	_ = db
	var direct sim.Duration
	if err := da.stack.Ping(Addr(10, 0, 0, 2), 1, 16, func(d sim.Duration) { direct = d }); err != nil {
		t.Fatal(err)
	}
	dcl.Run(0)
	if direct >= rtt {
		t.Errorf("two-hop rtt %v not slower than direct %v", rtt, direct)
	}
}

func TestForwardingTTLExpiry(t *testing.T) {
	a, r, b, cl := routerTriple(t)
	got := 0
	b.stack.UDP().Bind(9, InKernelDelivery, func(*Packet) { got++ })
	// TTL 1 dies at the router; TTL 2 reaches b.
	for _, ttl := range []int{1, 2} {
		pkt := AllocPacket()
		pkt.Src, pkt.Dst, pkt.Proto = a.stack.IP, b.stack.IP, ProtoUDP
		pkt.SrcPort, pkt.DstPort = 5000, 9
		pkt.AllocPayload(8)
		pkt.TTL = ttl
		if err := a.stack.SendIP(pkt); err != nil {
			t.Fatal(err)
		}
		cl.Run(0)
	}
	if got != 1 {
		t.Errorf("b received %d datagrams, want 1 (TTL=1 must die in transit)", got)
	}
	if exp := counter(r.stack, "net_ttl_expired"); exp != 1 {
		t.Errorf("router expired %d TTLs, want 1", exp)
	}
}

func TestForwardingDisabledDropsTransit(t *testing.T) {
	a, r, b, cl := routerTriple(t)
	r.stack.EnableForwarding(false)
	delivered := false
	b.stack.UDP().Bind(9, InKernelDelivery, func(*Packet) { delivered = true })
	if err := a.stack.UDP().Send(5000, b.stack.IP, 9, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	cl.Run(0)
	if delivered {
		t.Error("transit datagram delivered with forwarding off")
	}
	if got := counter(r.stack, "net_forwarded"); got != 0 {
		t.Errorf("router forwarded %d with forwarding off", got)
	}
}
