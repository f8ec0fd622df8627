package netstack_test

import (
	"fmt"
	"os"

	"spin/internal/dispatch"
	"spin/internal/metrics"
	"spin/internal/netstack"
	"spin/internal/sal"
	"spin/internal/sim"
)

func newHost(name string, ip netstack.IPAddr) (*sim.Engine, *netstack.Stack, *sal.NIC) {
	eng := sim.NewEngine()
	prof := &sim.SPINProfile
	disp := dispatch.New(eng, prof)
	ic := sal.NewInterruptController(eng, prof)
	nic := sal.NewNIC(sal.LanceModel, eng, ic, sal.VecNIC0)
	stack, err := netstack.NewStack(name, ip, eng, prof, disp)
	if err != nil {
		panic(err)
	}
	stack.Attach(nic)
	return eng, stack, nic
}

// Example sends a UDP datagram between two machines' in-kernel endpoints
// over simulated Ethernet.
func Example() {
	engA, a, nicA := newHost("a", netstack.Addr(10, 0, 0, 1))
	engB, b, nicB := newHost("b", netstack.Addr(10, 0, 0, 2))
	_ = sal.Connect(nicA, nicB)

	_ = b.UDP().Bind(7, netstack.InKernelDelivery, func(p *netstack.Packet) {
		fmt.Printf("got %q\n", p.Payload)
	})
	_ = a.UDP().Send(5000, b.IP, 7, []byte("hello"))
	sim.NewCluster(engA, engB).Run(0)
	// Output: got "hello"
}

// ExampleNewPacketFilter composes predicates into an in-kernel firewall —
// the guard-based answer to "little language" packet filters. The
// expression is lowered to bytecode, verified, and installed as the guard.
func ExampleNewPacketFilter() {
	engA, a, nicA := newHost("a", netstack.Addr(10, 0, 0, 1))
	engB, b, nicB := newHost("b", netstack.Addr(10, 0, 0, 2))
	_ = sal.Connect(nicA, nicB)

	_, _ = netstack.NewPacketFilter(b, "firewall",
		netstack.And(
			netstack.MatchProto(netstack.ProtoUDP),
			netstack.MatchDstPortRange(1, 1023),
		),
		netstack.Drop)
	_ = metrics.Write(os.Stdout, "bcode_insns", b)

	_ = b.UDP().Bind(22, netstack.InKernelDelivery, func(*netstack.Packet) {
		fmt.Println("privileged port reached")
	})
	_ = b.UDP().Bind(8080, netstack.InKernelDelivery, func(*netstack.Packet) {
		fmt.Println("high port reached")
	})
	_ = a.UDP().Send(5000, b.IP, 22, []byte("x"))
	_ = a.UDP().Send(5000, b.IP, 8080, []byte("x"))
	sim.NewCluster(engA, engB).Run(0)
	// Output:
	// bcode_insns{program="firewall",point="ip-filter"} 9
	// high port reached
}
