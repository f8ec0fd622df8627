package netstack

import (
	"testing"

	"spin/internal/sal"
	"spin/internal/sim"
)

// routerTriple wires a — r — b: the middle machine has one NIC per segment
// and routes programmed for both ends.
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
	// End hosts: single NIC, default route suffices.
	return a, r, b, sim.NewCluster(a.eng, r.eng, b.eng)
}

// An end host is not a router: a transit packet no extension claims is
// dropped, even with a route to its destination.
func TestForwardingDisabledDropsTransit(t *testing.T) {
	a, r, b, cl := routerTriple(t)
	delivered := false
	b.stack.UDP().Bind(9, InKernelDelivery, func(*Packet) { delivered = true })
	if err := a.stack.UDP().Send(5000, b.stack.IP, 9, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	cl.Run(0)
	if delivered {
		t.Error("transit datagram delivered through an end host")
	}
	if received, sent := r.stack.Stats(); received != 1 || sent != 0 {
		t.Errorf("middle host received %d and sent %d packets, want 1 and 0", received, sent)
	}
}
