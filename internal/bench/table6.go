package bench

import (
	"fmt"

	"spin"
	"spin/internal/baseline"
	"spin/internal/netstack"
	"spin/internal/sal"
	"spin/internal/sim"
)

// RunTable6 reproduces Table 6: round-trip latency to route 16-byte packets
// through a protocol forwarder on a middle host — SPIN's in-kernel
// forwarding extension versus DEC OSF/1's user-level splice process.
func RunTable6() (*Table, error) {
	spinTCPEth, spinUDPEth, err := spinForwardNumbers(sal.LanceModel)
	if err != nil {
		return nil, err
	}
	spinTCPATM, spinUDPATM, err := spinForwardNumbers(sal.ForeModel)
	if err != nil {
		return nil, err
	}
	osfTCPEth, osfUDPEth, err := osfForwardNumbers(sal.LanceModel)
	if err != nil {
		return nil, err
	}
	osfTCPATM, osfUDPATM, err := osfForwardNumbers(sal.ForeModel)
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:      "table6",
		Title:   "Protocol forwarding round-trip latency (16-byte packets)",
		Columns: []string{"TCP OSF/1", "TCP SPIN", "UDP OSF/1", "UDP SPIN"},
		Unit:    "µs",
		Rows: []Row{
			{"Ethernet", []float64{2080, 1420, 1607, 1344}, []float64{osfTCPEth, spinTCPEth, osfUDPEth, spinUDPEth}},
			{"ATM", []float64{1730, 1067, 1389, 1024}, []float64{osfTCPATM, spinTCPATM, osfUDPATM, spinUDPATM}},
		},
		Notes: []string{
			"SPIN forwards below the transport (end-to-end TCP semantics preserved); OSF/1 splices sockets above it",
		},
	}, nil
}

// spinChain builds client -> mid -> server SPIN machines with the forwarder
// installed on mid for the given protocol.
func spinChain(model sal.NICModel, proto uint8, port uint16) (client, mid, server *spin.Machine, cl *sim.Cluster, err error) {
	client, err = newSPINMachine("client", netstack.Addr(10, 0, 0, 1))
	if err != nil {
		return
	}
	mid, err = newSPINMachine("mid", netstack.Addr(10, 0, 0, 2))
	if err != nil {
		return
	}
	server, err = newSPINMachine("server", netstack.Addr(10, 0, 0, 3))
	if err != nil {
		return
	}
	cNIC := client.AddNIC(model)
	m1 := mid.AddNIC(model)
	m2 := mid.AddNIC(model)
	sNIC := server.AddNIC(model)
	if err = sal.Connect(cNIC, m1); err != nil {
		return
	}
	if err = sal.Connect(m2, sNIC); err != nil {
		return
	}
	mid.Stack.AddRoute(client.Stack.IP, m1)
	mid.Stack.AddRoute(server.Stack.IP, m2)
	if _, err = netstack.NewForwarder(mid.Stack, proto, port, server.Stack.IP); err != nil {
		return
	}
	if _, err = netstack.NewReverseForwarder(mid.Stack, proto, port, server.Stack.IP, client.Stack.IP); err != nil {
		return
	}
	cl = sim.NewCluster(client.Engine, mid.Engine, server.Engine)
	return
}

// spinForwardNumbers measures TCP and UDP forwarding RTTs through SPIN's
// in-kernel forwarder.
func spinForwardNumbers(model sal.NICModel) (tcpRTT, udpRTT float64, err error) {
	// --- UDP ---
	client, _, server, cl, err := spinChain(model, netstack.ProtoUDP, echoPort)
	if err != nil {
		return 0, 0, err
	}
	if err := server.Stack.UDP().Echo(echoPort, netstack.InKernelDelivery); err != nil {
		return 0, 0, err
	}
	replies := 0
	if err := client.Stack.UDP().Bind(clientPort, netstack.InKernelDelivery, func(*netstack.Packet) {
		replies++
	}); err != nil {
		return 0, 0, err
	}
	const rounds = 8
	var total sim.Duration
	for i := 0; i < rounds; i++ {
		got := replies
		start := client.Clock.Now()
		_ = client.Stack.UDP().Send(clientPort, netstack.Addr(10, 0, 0, 2), echoPort, make([]byte, 16))
		if !cl.RunUntil(func() bool { return replies > got }, sim.Time(60*sim.Second)) {
			return 0, 0, fmt.Errorf("bench: forwarded UDP echo lost")
		}
		total += client.Clock.Now().Sub(start)
	}
	udpRTT = micros(total / rounds)

	// --- TCP ---
	clientT, _, serverT, clT, err := spinChain(model, netstack.ProtoTCP, 80)
	if err != nil {
		return 0, 0, err
	}
	tcpRTT, err = tcpEchoRTT(clT, clientT.Clock,
		func(accept func(*netstack.Conn)) error {
			return serverT.Stack.TCP().Listen(80, netstack.InKernelDelivery, accept)
		},
		func() (*netstack.Conn, error) {
			return clientT.Stack.TCP().Connect(netstack.Addr(10, 0, 0, 2), 80, netstack.InKernelDelivery)
		}, nil)
	return tcpRTT, udpRTT, err
}

// tcpEchoRTT establishes a TCP connection, then measures the steady-state
// round trip of a 16-byte application message echoed by the server.
// chargeSend, when non-nil, models the user-level send path per message.
func tcpEchoRTT(cl *sim.Cluster, clock *sim.Clock,
	listen func(accept func(*netstack.Conn)) error,
	connect func() (*netstack.Conn, error),
	chargeSend func()) (float64, error) {

	server := &echoServer{chargeSend: chargeSend}
	if err := listen(func(c *netstack.Conn) { c.Handler = server }); err != nil {
		return 0, err
	}
	conn, err := connect()
	if err != nil {
		return 0, err
	}
	client := new(echoClient)
	conn.Handler = client
	if !cl.RunUntil(func() bool { return client.established }, sim.Time(60*sim.Second)) {
		return 0, fmt.Errorf("bench: TCP connection never established")
	}
	const rounds = 8
	var total sim.Duration
	for i := 0; i < rounds; i++ {
		got := client.echoes
		start := clock.Now()
		if chargeSend != nil {
			chargeSend()
		}
		_ = conn.Send(make([]byte, 16))
		if !cl.RunUntil(func() bool { return client.echoes > got }, sim.Time(60*sim.Second)) {
			return 0, fmt.Errorf("bench: TCP echo %d lost", i)
		}
		total += clock.Now().Sub(start)
	}
	cl.Run(0) // the last ACKs still on the wire, so every packet goes back
	return micros(total / rounds), nil
}

// echoServer sends back what each connection delivers, running chargeSend,
// when non-nil, before each send.
type echoServer struct{ chargeSend func() }

func (s *echoServer) Connected(*netstack.Conn) {}

func (s *echoServer) Received(c *netstack.Conn, data []byte) {
	if s.chargeSend != nil {
		s.chargeSend()
	}
	_ = c.Send(data)
}

func (s *echoServer) Sent(*netstack.Conn) {}

func (s *echoServer) Closed(*netstack.Conn) {}

// echoClient notes when its connection is up and counts the echoes it
// delivers.
type echoClient struct {
	established bool
	echoes      int
}

func (e *echoClient) Connected(*netstack.Conn) { e.established = true }

func (e *echoClient) Received(*netstack.Conn, []byte) { e.echoes++ }

func (e *echoClient) Sent(*netstack.Conn) {}

func (e *echoClient) Closed(*netstack.Conn) {}

// osfForwardNumbers measures the OSF/1 user-level splice.
func osfForwardNumbers(model sal.NICModel) (tcpRTT, udpRTT float64, err error) {
	mkChain := func() (*baseline.Host, *baseline.Host, *baseline.Host, *sim.Cluster, error) {
		sysC, sysM, sysS := baseline.NewOSF1(), baseline.NewOSF1(), baseline.NewOSF1()
		c, err := sysC.NewHost("c", netstack.Addr(10, 0, 0, 1), model)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		m, err := sysM.NewHost("m", netstack.Addr(10, 0, 0, 2), model)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		s, err := sysS.NewHost("s", netstack.Addr(10, 0, 0, 3), model)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		m2 := sal.NewNIC(model, sysM.Engine, m.IC, sal.VecNIC1)
		if err := sal.Connect(c.NIC, m.NIC); err != nil {
			return nil, nil, nil, nil, err
		}
		if err := sal.Connect(m2, s.NIC); err != nil {
			return nil, nil, nil, nil, err
		}
		m.Stack.Attach(m2)
		m.Stack.AddRoute(c.Stack.IP, m.NIC)
		m.Stack.AddRoute(s.Stack.IP, m2)
		return c, m, s, sim.NewCluster(sysC.Engine, sysM.Engine, sysS.Engine), nil
	}

	// --- UDP splice ---
	c, m, s, cl, err := mkChain()
	if err != nil {
		return 0, 0, err
	}
	if _, err := baseline.NewUDPSplice(m, echoPort, s.Stack.IP); err != nil {
		return 0, 0, err
	}
	// Reverse path: a second splice for replies client-ward.
	replies := 0
	if err := s.Stack.UDP().Bind(echoPort, s.Sys.SocketDelivery(), func(p *netstack.Packet) {
		// Server echo process replies to the splice host, which
		// relays to the client.
		_ = s.UDPSend(echoPort, p.Src, p.SrcPort, p.Payload)
	}); err != nil {
		return 0, 0, err
	}
	if err := c.Stack.UDP().Bind(echoPort, c.Sys.SocketDelivery(), func(*netstack.Packet) {
		replies++
	}); err != nil {
		return 0, 0, err
	}
	const rounds = 8
	var total sim.Duration
	for i := 0; i < rounds; i++ {
		got := replies
		start := c.Sys.Clock.Now()
		_ = c.UDPSend(echoPort, m.Stack.IP, echoPort, make([]byte, 16))
		if !cl.RunUntil(func() bool { return replies > got }, sim.Time(60*sim.Second)) {
			return 0, 0, fmt.Errorf("bench: spliced UDP echo lost")
		}
		total += c.Sys.Clock.Now().Sub(start)
	}
	udpRTT = micros(total / rounds)

	// --- TCP splice ---
	cT, mT, sT, clT, err := mkChain()
	if err != nil {
		return 0, 0, err
	}
	if _, err := baseline.NewTCPSplice(mT, 80, sT.Stack.IP); err != nil {
		return 0, 0, err
	}
	tcpRTT, err = tcpEchoRTT(clT, cT.Sys.Clock,
		func(accept func(*netstack.Conn)) error {
			return sT.Stack.TCP().Listen(80, sT.Sys.SocketDelivery(), accept)
		},
		func() (*netstack.Conn, error) {
			return cT.Stack.TCP().Connect(mT.Stack.IP, 80, cT.Sys.SocketDelivery())
		},
		func() { /* user send path charged by the splice itself */ })
	return tcpRTT, udpRTT, err
}
