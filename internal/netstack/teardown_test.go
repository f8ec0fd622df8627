package netstack

import (
	"testing"

	"spin/internal/faultinject"
	"spin/internal/sal"
	"spin/internal/sim"
)

// Owner-tagged endpoint teardown and RX fault containment: the netstack
// half of crash-only domain destruction.

func TestUnbindOwnerReleasesPorts(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	delivered := 0
	_ = b.stack.UDP().BindOwned("ext", 100, InKernelDelivery, func(*Packet) { delivered++ })
	_ = b.stack.UDP().BindOwned("ext", 101, InKernelDelivery, func(*Packet) { delivered++ })
	_ = b.stack.UDP().Bind(102, InKernelDelivery, func(*Packet) { delivered++ })
	if n := b.stack.UDP().UnbindOwner("ext"); n != 2 {
		t.Fatalf("UnbindOwner = %d, want 2", n)
	}
	for _, port := range []uint16{100, 101, 102} {
		_ = a.stack.UDP().Send(1, Addr(10, 0, 0, 2), port, []byte("x"))
	}
	cl.Run(0)
	if delivered != 1 {
		t.Errorf("%d datagrams delivered, want 1 (only the unowned binding survives)", delivered)
	}
	// The freed port is immediately rebindable; a repeat sweep finds nothing.
	if err := b.stack.UDP().Bind(100, InKernelDelivery, func(*Packet) {}); err != nil {
		t.Errorf("port not rebindable after UnbindOwner: %v", err)
	}
	if n := b.stack.UDP().UnbindOwner("ext"); n != 0 {
		t.Errorf("second UnbindOwner = %d, want 0", n)
	}
}

func TestUnlistenOwnerReleasesPorts(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	_ = b.stack.TCP().ListenOwned("ext", 80, nil, func(*Conn) {})
	_ = b.stack.TCP().ListenOwned("ext", 81, nil, func(*Conn) {})
	accepted := false
	_ = b.stack.TCP().Listen(82, nil, func(*Conn) { accepted = true })
	if n := b.stack.TCP().UnlistenOwner("ext"); n != 2 {
		t.Fatalf("UnlistenOwner = %d, want 2", n)
	}
	if err := b.stack.TCP().ListenOwned("ext2", 80, nil, func(*Conn) {}); err != nil {
		t.Errorf("port not relistenable after UnlistenOwner: %v", err)
	}
	// The surviving listener still accepts.
	if _, err := a.stack.TCP().Connect(Addr(10, 0, 0, 2), 82, nil); err != nil {
		t.Fatal(err)
	}
	if !cl.RunUntil(func() bool { return accepted }, sim.Time(10*sim.Second)) {
		t.Error("unowned listener no longer accepting after owner sweep")
	}
}

func TestRXPanicContained(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	inj := faultinject.New(7, b.eng.Clock)
	b.disp.SetInjector(inj)
	inj.Arm(faultinject.Rule{Site: "net.rx", Kind: faultinject.KindPanic, MaxFires: 2})
	got := 0
	_ = b.stack.UDP().Bind(9, InKernelDelivery, func(*Packet) { got++ })
	for i := 0; i < 5; i++ {
		_ = a.stack.UDP().Send(1, Addr(10, 0, 0, 2), 9, []byte("x"))
		cl.Run(0)
	}
	if n := counter(b.stack, "net_rx_panics"); n != 2 {
		t.Errorf("net_rx_panics = %d, want the 2 injected", n)
	}
	if got != 3 {
		t.Errorf("%d datagrams delivered, want 3 (2 lost to contained panics)", got)
	}
}
