package baseline

import (
	"bytes"
	"testing"

	"spin/internal/faultinject"
	"spin/internal/netstack"
	"spin/internal/sal"
	"spin/internal/sim"
)

// connFuncs is a netstack.ConnHandler made of optional funcs, for tests that
// watch one or two of a connection's events: on(c) makes one c's handler.
type connFuncs struct {
	connected, sent, closed func(*netstack.Conn)
	received                func(*netstack.Conn, []byte)
}

// on returns c's connFuncs, making a fresh one its Handler the first time.
func on(c *netstack.Conn) *connFuncs {
	f, ok := c.Handler.(*connFuncs)
	if !ok {
		f = new(connFuncs)
		c.Handler = f
	}
	return f
}

func (f *connFuncs) Connected(c *netstack.Conn) { callConn(f.connected, c) }
func (f *connFuncs) Sent(c *netstack.Conn)      { callConn(f.sent, c) }
func (f *connFuncs) Closed(c *netstack.Conn)    { callConn(f.closed, c) }

func (f *connFuncs) Received(c *netstack.Conn, data []byte) {
	if f.received != nil {
		f.received(c, data)
	}
}

func callConn(fn func(*netstack.Conn), c *netstack.Conn) {
	if fn != nil {
		fn(c)
	}
}

func TestNullSyscallCosts(t *testing.T) {
	for _, tc := range []struct {
		sys  *System
		want sim.Duration
	}{
		{NewOSF1(), 5 * sim.Microsecond},
		{NewMach(), 7 * sim.Microsecond},
	} {
		start := tc.sys.Clock.Now()
		tc.sys.NullSyscall()
		got := tc.sys.Clock.Now().Sub(start)
		if got < tc.want-sim.Microsecond/2 || got > tc.want+sim.Microsecond/2 {
			t.Errorf("%s null syscall = %v, want ≈%v", tc.sys.Name, got, tc.want)
		}
	}
}

func TestCrossAddressSpaceCallShape(t *testing.T) {
	// Table 2: OSF/1 845µs, Mach 104µs. The monolithic system's
	// socket+RPC path must be several times slower than Mach's optimized
	// messages.
	osf, mach := NewOSF1(), NewMach()
	osf.CrossAddressSpaceCall(0)
	mach.CrossAddressSpaceCall(0)
	osfT := osf.Clock.Now().Sub(0)
	machT := mach.Clock.Now().Sub(0)
	if osfT < 5*machT {
		t.Errorf("OSF/1 cross-AS %v not ≫ Mach %v", osfT, machT)
	}
	if osfT < 700*sim.Microsecond || osfT > 1000*sim.Microsecond {
		t.Errorf("OSF/1 cross-AS = %v, want ≈845µs", osfT)
	}
	if machT < 80*sim.Microsecond || machT > 130*sim.Microsecond {
		t.Errorf("Mach cross-AS = %v, want ≈104µs", machT)
	}
	if osf.InKernelCall() || mach.InKernelCall() {
		t.Error("baselines must not support protected in-kernel calls")
	}
}

func TestVMProtCosts(t *testing.T) {
	// Table 4 Prot1/Prot100/Unprot100 shapes.
	check := func(name string, got, want sim.Duration, tolFrac float64) {
		t.Helper()
		tol := sim.Duration(float64(want) * tolFrac)
		if got < want-tol || got > want+tol {
			t.Errorf("%s = %v, want ≈%v", name, got, want)
		}
	}

	osf := NewVMOps(NewOSF1(), 128)
	start := osf.sys.Clock.Now()
	osf.Protect(0, 1, sal.ProtRead)
	check("OSF Prot1", osf.sys.Clock.Now().Sub(start), 45*sim.Microsecond, 0.2)
	start = osf.sys.Clock.Now()
	osf.Protect(0, 100, sal.ProtRead)
	check("OSF Prot100", osf.sys.Clock.Now().Sub(start), 1041*sim.Microsecond, 0.2)
	start = osf.sys.Clock.Now()
	osf.Unprotect(0, 100, sal.ProtRead|sal.ProtWrite)
	check("OSF Unprot100", osf.sys.Clock.Now().Sub(start), 1016*sim.Microsecond, 0.2)

	mach := NewVMOps(NewMach(), 128)
	start = mach.sys.Clock.Now()
	mach.Protect(0, 1, sal.ProtRead)
	check("Mach Prot1", mach.sys.Clock.Now().Sub(start), 106*sim.Microsecond, 0.2)
	start = mach.sys.Clock.Now()
	mach.Protect(0, 100, sal.ProtRead)
	check("Mach Prot100", mach.sys.Clock.Now().Sub(start), 1792*sim.Microsecond, 0.2)
	start = mach.sys.Clock.Now()
	mach.Unprotect(0, 100, sal.ProtRead|sal.ProtWrite)
	// Mach's lazy path: far cheaper than its protect.
	check("Mach Unprot100", mach.sys.Clock.Now().Sub(start), 302*sim.Microsecond, 0.4)
}

func TestMachLazyUnprotectSemantics(t *testing.T) {
	v := NewVMOps(NewMach(), 4)
	v.Protect(0, 1, sal.ProtRead)
	v.Unprotect(0, 1, sal.ProtRead|sal.ProtWrite)
	// Lazy: the PTE still says read-only, but a touch must succeed
	// (resolved silently in the kernel) without invoking the handler.
	handlerRan := false
	_, faulted := v.Touch(0, sal.ProtWrite, func(*sal.Fault) { handlerRan = true })
	if faulted || handlerRan {
		t.Errorf("lazily unprotected page faulted to user (faulted=%v handler=%v)", faulted, handlerRan)
	}
}

func TestTouchFaultPath(t *testing.T) {
	v := NewVMOps(NewOSF1(), 4)
	v.Protect(2, 1, sal.ProtRead)
	start := v.sys.Clock.Now()
	lat, faulted := v.Touch(2, sal.ProtWrite, func(f *sal.Fault) {
		if f.Kind != sal.FaultProtection {
			t.Errorf("fault kind %v", f.Kind)
		}
		v.Unprotect(2, 1, sal.ProtRead|sal.ProtWrite)
	})
	total := v.sys.Clock.Now().Sub(start)
	if !faulted {
		t.Fatal("no fault on protected page")
	}
	// Trap latency ≈ 260µs (Table 4 OSF Trap); total ≈ 329µs (Fault).
	if lat < 200*sim.Microsecond || lat > 320*sim.Microsecond {
		t.Errorf("trap latency = %v, want ≈260µs", lat)
	}
	if total < 280*sim.Microsecond || total > 420*sim.Microsecond {
		t.Errorf("fault total = %v, want ≈329µs", total)
	}
	// Resolved: next touch does not fault.
	if _, faulted := v.Touch(2, sal.ProtWrite, nil); faulted {
		t.Error("still faulting after unprotect")
	}
}

func TestUDPSocketPathCostsMoreThanInKernel(t *testing.T) {
	// The socket delivery path must add measurable receive cost compared
	// to in-kernel delivery — the structural difference behind Table 5.
	sys := NewOSF1()
	h, err := sys.NewHost("osf", netstack.Addr(10, 0, 0, 1), sal.LanceModel)
	if err != nil {
		t.Fatal(err)
	}
	pkt := &netstack.Packet{Payload: make([]byte, 1500)}
	before := sys.Clock.Now()
	sys.SocketDelivery()(sys.Clock, pkt)
	cost := sys.Clock.Now().Sub(before)
	if cost < 30*sim.Microsecond {
		t.Errorf("socket delivery = %v, implausibly cheap", cost)
	}
	before = sys.Clock.Now()
	h.chargeUserSend(1500)
	if sys.Clock.Now().Sub(before) < 30*sim.Microsecond {
		t.Error("user send path implausibly cheap")
	}
}

func TestUDPEchoThroughSockets(t *testing.T) {
	osfA, osfB := NewOSF1(), NewOSF1()
	a, err := osfA.NewHost("a", netstack.Addr(10, 0, 0, 1), sal.LanceModel)
	if err != nil {
		t.Fatal(err)
	}
	b, err := osfB.NewHost("b", netstack.Addr(10, 0, 0, 2), sal.LanceModel)
	if err != nil {
		t.Fatal(err)
	}
	if err := sal.Connect(a.NIC, b.NIC); err != nil {
		t.Fatal(err)
	}
	if err := b.UDPEchoServer(7); err != nil {
		t.Fatal(err)
	}
	var got []byte
	_ = a.Stack.UDP().Bind(5000, osfA.SocketDelivery(), func(p *netstack.Packet) { got = p.Payload })
	_ = a.UDPSend(5000, netstack.Addr(10, 0, 0, 2), 7, []byte("osf echo"))
	sim.NewCluster(osfA.Engine, osfB.Engine).Run(0)
	if string(got) != "osf echo" {
		t.Errorf("got %q", got)
	}
}

func TestUDPSpliceForwards(t *testing.T) {
	sysC, sysM, sysS := NewOSF1(), NewOSF1(), NewOSF1()
	client, _ := sysC.NewHost("c", netstack.Addr(10, 0, 0, 1), sal.LanceModel)
	mid, _ := sysM.NewHost("m", netstack.Addr(10, 0, 0, 2), sal.LanceModel)
	server, _ := sysS.NewHost("s", netstack.Addr(10, 0, 0, 3), sal.LanceModel)
	mid2 := sal.NewNIC(sal.LanceModel, sysM.Engine, mid.IC, sal.VecNIC1)
	_ = sal.Connect(client.NIC, mid.NIC)
	_ = sal.Connect(mid2, server.NIC)
	mid.Stack.Attach(mid2)
	mid.Stack.AddRoute(netstack.Addr(10, 0, 0, 1), mid.NIC)
	mid.Stack.AddRoute(netstack.Addr(10, 0, 0, 3), mid2)

	sp, err := NewUDPSplice(mid, 7, netstack.Addr(10, 0, 0, 3))
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	_ = server.Stack.UDP().Bind(7, sysS.SocketDelivery(), func(p *netstack.Packet) { got = p.Payload })
	_ = client.UDPSend(5000, netstack.Addr(10, 0, 0, 2), 7, []byte("spliced"))
	sim.NewCluster(sysC.Engine, sysM.Engine, sysS.Engine).Run(0)
	if string(got) != "spliced" {
		t.Errorf("got %q", got)
	}
	if sp.Spliced != 1 {
		t.Errorf("spliced = %d", sp.Spliced)
	}
}

func TestTCPSpliceTerminatesLocally(t *testing.T) {
	sysC, sysM, sysS := NewOSF1(), NewOSF1(), NewOSF1()
	client, _ := sysC.NewHost("c", netstack.Addr(10, 0, 0, 1), sal.LanceModel)
	mid, _ := sysM.NewHost("m", netstack.Addr(10, 0, 0, 2), sal.LanceModel)
	server, _ := sysS.NewHost("s", netstack.Addr(10, 0, 0, 3), sal.LanceModel)
	mid2 := sal.NewNIC(sal.LanceModel, sysM.Engine, mid.IC, sal.VecNIC1)
	_ = sal.Connect(client.NIC, mid.NIC)
	_ = sal.Connect(mid2, server.NIC)
	mid.Stack.Attach(mid2)
	mid.Stack.AddRoute(netstack.Addr(10, 0, 0, 1), mid.NIC)
	mid.Stack.AddRoute(netstack.Addr(10, 0, 0, 3), mid2)

	if _, err := NewTCPSplice(mid, 80, netstack.Addr(10, 0, 0, 3)); err != nil {
		t.Fatal(err)
	}
	var got []byte
	_ = server.Stack.TCP().Listen(80, sysS.SocketDelivery(), func(c *netstack.Conn) {
		on(c).received = func(_ *netstack.Conn, d []byte) { got = append(got, d...) }
	})
	conn, _ := client.Stack.TCP().Connect(netstack.Addr(10, 0, 0, 2), 80, sysC.SocketDelivery())
	on(conn).connected = func(c *netstack.Conn) { _ = c.Send([]byte("via splice")) }
	cl := sim.NewCluster(sysC.Engine, sysM.Engine, sysS.Engine)
	cl.RunUntil(func() bool { return string(got) == "via splice" }, sim.Time(10*sim.Second))
	if string(got) != "via splice" {
		t.Fatalf("got %q", got)
	}
	// The deficiency: the middle host holds TCP connection state (it
	// terminated the transport), unlike SPIN's in-kernel forwarder.
	if mid.Stack.TCP().Conns() == 0 {
		t.Error("splice should hold local TCP state — that is its defining flaw")
	}
}

// A stream larger than the send buffer crosses the splice whole and in
// order to a target behind a lossy link, and the splice closes the far leg
// only behind its last byte.
func TestTCPSpliceRelaysPastTheSendBuffer(t *testing.T) {
	sysC, sysM, sysS := NewOSF1(), NewOSF1(), NewOSF1()
	client, _ := sysC.NewHost("c", netstack.Addr(10, 0, 0, 1), sal.LanceModel)
	mid, _ := sysM.NewHost("m", netstack.Addr(10, 0, 0, 2), sal.LanceModel)
	server, _ := sysS.NewHost("s", netstack.Addr(10, 0, 0, 3), sal.LanceModel)
	mid2 := sal.NewNIC(sal.LanceModel, sysM.Engine, mid.IC, sal.VecNIC1)
	_ = sal.Connect(client.NIC, mid.NIC)
	_ = sal.Connect(mid2, server.NIC)
	mid.Stack.Attach(mid2)
	mid.Stack.AddRoute(netstack.Addr(10, 0, 0, 1), mid.NIC)
	mid.Stack.AddRoute(netstack.Addr(10, 0, 0, 3), mid2)
	// The target and the splice each lose a tenth of the frames they
	// receive, the splice on both of its legs.
	for i, h := range []*Host{server, mid} {
		inj := faultinject.New(uint64(i+1), h.Sys.Engine.Clock)
		inj.Arm(faultinject.Rule{Site: "net.rx", Kind: faultinject.KindDrop, Probability: 0.1})
		h.Disp.SetInjector(inj)
	}

	sp, err := NewTCPSplice(mid, 80, netstack.Addr(10, 0, 0, 3))
	if err != nil {
		t.Fatal(err)
	}
	stream := make([]byte, 3<<19) // 1.5 MiB
	for i := range stream {
		stream[i] = byte(i*7 + i>>10)
	}
	var got []byte
	closedAt := -1
	_ = server.Stack.TCP().Listen(80, sysS.SocketDelivery(), func(c *netstack.Conn) {
		on(c).received = func(_ *netstack.Conn, d []byte) { got = append(got, d...) }
		on(c).closed = func(*netstack.Conn) {
			if closedAt < 0 {
				closedAt = len(got)
			}
		}
	})
	conn, _ := client.Stack.TCP().Connect(netstack.Addr(10, 0, 0, 2), 80, sysC.SocketDelivery())
	queued := 0
	fill := func(c *netstack.Conn) {
		n := min(len(stream)-queued, netstack.SendBufSize-c.Buffered())
		if n == 0 {
			return
		}
		if err := c.Send(stream[queued : queued+n]); err != nil {
			t.Fatal(err)
		}
		if queued += n; queued == len(stream) {
			c.Close()
		}
	}
	on(conn).connected, on(conn).sent = fill, fill
	cl := sim.NewCluster(sysC.Engine, sysM.Engine, sysS.Engine)
	cl.RunUntil(func() bool { return closedAt >= 0 }, sim.Time(600*sim.Second))
	if !bytes.Equal(got, stream) {
		t.Fatalf("the target received %d of %d bytes, equal %v", len(got), len(stream), bytes.Equal(got, stream))
	}
	if closedAt != len(stream) {
		t.Errorf("the far leg closed after %d of %d bytes", closedAt, len(stream))
	}
	if sp.Spliced != int64(len(stream)) {
		t.Errorf("spliced %d bytes, want %d", sp.Spliced, len(stream))
	}
	if server.Disp.InjectorInstalled().FiredAt("net.rx") == 0 || mid.Disp.InjectorInstalled().FiredAt("net.rx") == 0 {
		t.Error("a lossy receiver lost nothing")
	}
}

func TestVideoServerPerClientCost(t *testing.T) {
	// OSF/1's server pays the user-send path once per client per frame.
	sys := NewOSF1()
	h, _ := sys.NewHost("vs", netstack.Addr(10, 0, 1, 1), sal.T3Model)
	peerSys := NewOSF1()
	peer, _ := peerSys.NewHost("sink", netstack.Addr(10, 0, 1, 2), sal.T3Model)
	_ = sal.Connect(h.NIC, peer.NIC)
	vs := NewVideoServer(h, 6000, func(int) []byte { return make([]byte, 1400) })
	vs.Subscribe(netstack.Addr(10, 0, 1, 2))
	vs.Subscribe(netstack.Addr(10, 0, 1, 2))
	busyBefore := sys.Clock.Busy()
	vs.SendFrame(0)
	oneFrameTwoClients := sys.Clock.Busy() - busyBefore
	if vs.PacketsSent != 2 {
		t.Errorf("packets = %d", vs.PacketsSent)
	}
	// Per-client cost must exceed the user-send path minimum.
	if oneFrameTwoClients < 100*sim.Microsecond {
		t.Errorf("two-client frame busy = %v, implausibly cheap", oneFrameTwoClients)
	}
}

func TestAccessorsAndFlags(t *testing.T) {
	osf, mach := NewOSF1(), NewMach()
	if osf.IsMach() || !mach.IsMach() {
		t.Error("IsMach flags wrong")
	}
	v := NewVMOps(osf, 4)
	if v.DirtySupported() {
		t.Error("baselines must not support the Dirty query")
	}
	if v.MMU() == nil || v.Ctx() == 0 {
		t.Error("accessors broken")
	}
}

func TestSpliceBindConflicts(t *testing.T) {
	sys := NewOSF1()
	h, err := sys.NewHost("h", netstack.Addr(10, 0, 0, 1), sal.LanceModel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewUDPSplice(h, 7, netstack.Addr(10, 0, 0, 9)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewUDPSplice(h, 7, netstack.Addr(10, 0, 0, 9)); err == nil {
		t.Error("duplicate UDP splice bind accepted")
	}
	if _, err := NewTCPSplice(h, 80, netstack.Addr(10, 0, 0, 9)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewTCPSplice(h, 80, netstack.Addr(10, 0, 0, 9)); err == nil {
		t.Error("duplicate TCP splice listen accepted")
	}
}
