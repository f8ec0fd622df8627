package netstack

import (
	"testing"

	"spin/internal/faultinject"
	"spin/internal/metrics"
	"spin/internal/sal"
	"spin/internal/sim"
)

// Edge cases of the TCP state machine.

func establish(t *testing.T, a, b *host, cl *sim.Cluster) (client *Conn, server **Conn) {
	t.Helper()
	var srvConn *Conn
	if err := b.stack.TCP().Listen(80, nil, func(c *Conn) { srvConn = c }); err != nil {
		t.Fatal(err)
	}
	conn, err := a.stack.TCP().Connect(Addr(10, 0, 0, 2), 80, nil)
	if err != nil {
		t.Fatal(err)
	}
	up := false
	on(conn).connected = func(*Conn) { up = true }
	if !cl.RunUntil(func() bool { return up && srvConn != nil }, sim.Time(60*sim.Second)) {
		t.Fatal("handshake failed")
	}
	return conn, &srvConn
}

func TestTCPSimultaneousClose(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	client, srv := establish(t, a, b, cl)
	// Both sides close at (virtually) the same instant: FINs cross.
	client.Close()
	(*srv).Close()
	cl.Run(sim.Time(60 * sim.Second))
	if client.State() != StateClosed {
		t.Errorf("client state = %v", client.State())
	}
	if (*srv).State() != StateClosed {
		t.Errorf("server state = %v", (*srv).State())
	}
	if a.stack.TCP().Conns()+b.stack.TCP().Conns() != 0 {
		t.Error("connections leaked after simultaneous close")
	}
}

func TestTCPHalfClose(t *testing.T) {
	// Client closes its direction; the server may still send before
	// closing its own.
	a, b, cl := pair(t, sal.LanceModel)
	client, srv := establish(t, a, b, cl)
	var clientGot []byte
	on(client).received = func(_ *Conn, d []byte) { clientGot = append(clientGot, d...) }
	serverSawClose := false
	on(*srv).closed = func(c *Conn) {
		serverSawClose = true
		_ = c.Send([]byte("parting gift"))
		c.Close()
	}
	client.Close()
	cl.Run(sim.Time(60 * sim.Second))
	if !serverSawClose {
		t.Fatal("server never saw the close")
	}
	if string(clientGot) != "parting gift" {
		t.Errorf("client got %q after half-close", clientGot)
	}
	if client.State() != StateClosed || (*srv).State() != StateClosed {
		t.Errorf("states = %v / %v", client.State(), (*srv).State())
	}
}

func TestTCPRSTMidConnection(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	client, srv := establish(t, a, b, cl)
	closed := false
	on(client).closed = func(*Conn) { closed = true }
	// Forge a RST from the server side (e.g. its process died), at the
	// sequence number its next segment would carry. One anywhere else is
	// not believed: TestTCPScript's rfc5961 rows.
	rp, lp := (*srv).localPort, (*srv).remotePort
	rst := &Packet{
		Src: b.stack.IP, Dst: a.stack.IP, Proto: ProtoTCP,
		SrcPort: rp, DstPort: lp, Flags: FlagRST, Seq: (*srv).sndNxt, TTL: 32,
	}
	_ = b.stack.SendIP(rst)
	cl.Run(sim.Time(60 * sim.Second))
	if client.State() != StateClosed {
		t.Errorf("client state after RST = %v", client.State())
	}
	if !closed {
		t.Error("Closed not run on RST")
	}
}

// RFC 793 §3.9: a segment whose ACK covers data never sent (SEG.ACK >
// SND.NXT) is answered with an ACK and dropped whole — it must not advance
// SND.UNA, release unacknowledged data, or deliver its payload.
func TestTCPIgnoresAckBeyondSndNxt(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	client, srv := establish(t, a, b, cl)
	delivered := 0
	on(client).received = func(*Conn, []byte) { delivered++ }
	// Queue data without running the cluster: it sits unacknowledged.
	if err := client.Send(make([]byte, 3*DefaultMSS)); err != nil {
		t.Fatal(err)
	}
	sndUna, sndNxt, rcvNxt, inflight := client.sndUna, client.sndNxt, client.rcvNxt, len(client.inflight)
	if inflight == 0 {
		t.Fatal("no data in flight")
	}
	_, sentBefore := a.stack.Stats()
	forged := &Packet{
		Src: b.stack.IP, Dst: a.stack.IP, Proto: ProtoTCP,
		SrcPort: (*srv).localPort, DstPort: (*srv).remotePort,
		Flags: FlagACK, Seq: rcvNxt, Ack: sndNxt + 1000, Window: rcvWindow,
		Payload: []byte("smuggled"), TTL: 32,
	}
	a.stack.TCP().Deliver(forged)
	if client.sndUna != sndUna || len(client.inflight) != inflight {
		t.Errorf("sndUna %d -> %d, inflight %d -> %d: ACK of unsent data accepted",
			sndUna, client.sndUna, inflight, len(client.inflight))
	}
	if client.rcvNxt != rcvNxt || delivered != 0 {
		t.Errorf("rcvNxt %d -> %d, %d deliveries: unacceptable segment's payload consumed",
			rcvNxt, client.rcvNxt, delivered)
	}
	if _, sent := a.stack.Stats(); sent != sentBefore+1 {
		t.Errorf("sent %d segments in reply, want exactly one ACK", sent-sentBefore)
	}
	// The connection is unharmed: the real ACKs arrive and drain it.
	if !cl.RunUntil(func() bool { return len(client.inflight) == 0 }, sim.Time(60*sim.Second)) {
		t.Fatal("transfer never completed after the forged segment")
	}
	if client.sndUna != client.sndNxt {
		t.Errorf("sndUna = %d, sndNxt = %d after drain", client.sndUna, client.sndNxt)
	}
}

func TestTCPServerRetransmitsSYNACK(t *testing.T) {
	// Drop the server's first SYN-ACK: its retransmission timer must
	// recover the handshake.
	a, b, cl := pair(t, sal.LanceModel)
	// The SYN-ACK is the first frame the client receives.
	inj := faultinject.New(3, a.eng.Clock)
	inj.Arm(faultinject.Rule{Site: "net.rx", Kind: faultinject.KindDrop, MaxFires: 1})
	a.disp.SetInjector(inj)
	accepted := false
	_ = b.stack.TCP().Listen(80, nil, func(*Conn) { accepted = true })
	conn, _ := a.stack.TCP().Connect(Addr(10, 0, 0, 2), 80, nil)
	up := false
	on(conn).connected = func(*Conn) { up = true }
	cl.RunUntil(func() bool { return up && accepted }, sim.Time(60*sim.Second))
	if !up || !accepted {
		t.Fatalf("handshake never recovered (up=%v accepted=%v)", up, accepted)
	}
	if n := rxDrops(a); n != 1 {
		t.Errorf("client dropped %d frames, want the one SYN-ACK", n)
	}
	// The client's SYN timer resent the SYN: a timeout, and a SYN's.
	tcp := a.stack.TCP()
	if rtos, syn := metrics.Value(tcp, "net_tcp_rtos"), metrics.Value(tcp, "net_tcp_syn_rtos"); rtos != 1 || syn != 1 {
		t.Errorf("client counted %v timeouts, %v of them a SYN's; want 1, 1", rtos, syn)
	}
}

func TestTCPDataBeforeAcceptCallbackQueues(t *testing.T) {
	// Client sends immediately at Connected; the server's Received is
	// assigned in the accept callback, which runs at ESTABLISHED —
	// data arriving with the handshake-completing ACK must be seen.
	a, b, cl := pair(t, sal.LanceModel)
	var got []byte
	_ = b.stack.TCP().Listen(80, nil, func(c *Conn) {
		on(c).received = func(_ *Conn, d []byte) { got = append(got, d...) }
	})
	conn, _ := a.stack.TCP().Connect(Addr(10, 0, 0, 2), 80, nil)
	on(conn).connected = func(c *Conn) { _ = c.Send([]byte("eager")) }
	cl.Run(sim.Time(60 * sim.Second))
	if string(got) != "eager" {
		t.Errorf("got %q", got)
	}
}

// OnData, which the benchmark's TCP probes still set, takes the delivered
// bytes in place of the handler's Received; the handler still sees the
// connection's other events.
func TestTCPOnDataTakesBytesFromHandler(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	var viaOnData, viaHandler []byte
	connected, closed := false, false
	_ = b.stack.TCP().Listen(80, nil, func(c *Conn) {
		on(c).received = func(_ *Conn, d []byte) { viaHandler = append(viaHandler, d...) }
		on(c).connected = func(*Conn) { connected = true }
		on(c).closed = func(*Conn) { closed = true }
		c.OnData = func(_ *Conn, d []byte) { viaOnData = append(viaOnData, d...) }
	})
	conn, _ := a.stack.TCP().Connect(Addr(10, 0, 0, 2), 80, nil)
	on(conn).connected = func(c *Conn) {
		_ = c.Send([]byte("to OnData"))
		c.Close()
	}
	cl.Run(sim.Time(60 * sim.Second))
	if string(viaOnData) != "to OnData" || viaHandler != nil {
		t.Errorf("OnData got %q, the handler's Received %q; want all of it at OnData", viaOnData, viaHandler)
	}
	if !connected || !closed {
		t.Errorf("the handler saw connected %v, closed %v; want both", connected, closed)
	}
}

func TestTCPSendOnClosedFails(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	client, _ := establish(t, a, b, cl)
	client.Close()
	cl.Run(sim.Time(60 * sim.Second))
	if err := client.Send([]byte("too late")); err == nil {
		t.Error("send on closed connection accepted")
	}
}

func TestTCPWindowLimitsInFlight(t *testing.T) {
	// With a tiny peer window, the sender must not blast the whole
	// buffer at once.
	a, b, cl := pair(t, sal.LanceModel)
	client, _ := establish(t, a, b, cl)
	client.sndWnd = 2 * DefaultMSS // pretend the peer advertised 2 MSS
	_ = client.Send(make([]byte, 10*DefaultMSS))
	inFlight := int(client.sndNxt - client.sndUna)
	if inFlight > 2*DefaultMSS {
		t.Errorf("in-flight %d exceeds advertised window %d", inFlight, 2*DefaultMSS)
	}
	cl.Run(sim.Time(60 * sim.Second))
	if client.unsent() != 0 || len(client.inflight) != 0 {
		t.Error("transfer did not complete after window opened via ACKs")
	}
}

// Every data segment arms the retransmit timer and every ACK that empties
// the window disarms it, so the timer is the connection's own event: arming,
// disarming and arming again allocate nothing (2 objects an arm before).
func TestRetxTimerAllocFree(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	client, _ := establish(t, a, b, cl)
	allocs := testing.AllocsPerRun(1000, func() {
		client.armRetx()
		client.cancelRetx()
		client.armRetx()
		client.cancelRetx()
	})
	if allocs != 0 {
		t.Errorf("arm, disarm, arm, disarm allocates %v, want 0", allocs)
	}
	cl.Run(0)
	if client.Retransmits() != 0 {
		t.Errorf("a disarmed timer fired: %d retransmits", client.Retransmits())
	}
}

func TestTCPConcurrentConnections(t *testing.T) {
	// Several simultaneous connections to one listener stay isolated.
	a, b, cl := pair(t, sal.LanceModel)
	got := map[uint16][]byte{}
	_ = b.stack.TCP().Listen(80, nil, func(c *Conn) {
		on(c).received = func(c *Conn, d []byte) {
			_, port := c.Remote()
			got[port] = append(got[port], d...)
		}
	})
	const n = 5
	var conns []*Conn
	for i := 0; i < n; i++ {
		i := i
		c, err := a.stack.TCP().Connect(Addr(10, 0, 0, 2), 80, nil)
		if err != nil {
			t.Fatal(err)
		}
		on(c).connected = func(c *Conn) {
			_ = c.Send([]byte{byte('A' + i)})
		}
		conns = append(conns, c)
	}
	cl.Run(sim.Time(60 * sim.Second))
	if len(got) != n {
		t.Fatalf("distinct peers = %d, want %d", len(got), n)
	}
	seen := map[byte]bool{}
	for _, d := range got {
		if len(d) != 1 {
			t.Fatalf("stream mixed: %q", d)
		}
		seen[d[0]] = true
	}
	if len(seen) != n {
		t.Errorf("payloads = %v", seen)
	}
}
