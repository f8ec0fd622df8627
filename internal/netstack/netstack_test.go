package netstack

import (
	"bytes"
	"strings"
	"testing"

	"spin/internal/dispatch"
	"spin/internal/domain"
	"spin/internal/metrics"
	"spin/internal/sal"
	"spin/internal/sim"
)

func domainIdent(name string) domain.Identity { return domain.Identity{Name: name} }

// host bundles one simulated machine's networking for tests.
type host struct {
	eng   *sim.Engine
	disp  *dispatch.Dispatcher
	ic    *sal.InterruptController
	nic   *sal.NIC
	stack *Stack
}

func newNetHost(t *testing.T, name string, ip IPAddr, model sal.NICModel) *host {
	t.Helper()
	eng := sim.NewEngine()
	prof := &sim.SPINProfile
	disp := dispatch.New(eng, prof)
	ic := sal.NewInterruptController(eng, prof)
	nic := sal.NewNIC(model, eng, ic, sal.VecNIC0)
	stack, err := NewStack(name, ip, eng, prof, disp)
	if err != nil {
		t.Fatal(err)
	}
	stack.Attach(nic)
	return &host{eng: eng, disp: disp, ic: ic, nic: nic, stack: stack}
}

// pair returns two connected hosts and their cluster.
func pair(t *testing.T, model sal.NICModel) (*host, *host, *sim.Cluster) {
	t.Helper()
	a := newNetHost(t, "a", Addr(10, 0, 0, 1), model)
	b := newNetHost(t, "b", Addr(10, 0, 0, 2), model)
	if err := sal.Connect(a.nic, b.nic); err != nil {
		t.Fatal(err)
	}
	return a, b, sim.NewCluster(a.eng, b.eng)
}

func TestAddrString(t *testing.T) {
	if got := Addr(10, 1, 2, 3).String(); got != "10.1.2.3" {
		t.Errorf("String = %q", got)
	}
}

func TestPacketWireSize(t *testing.T) {
	p := &Packet{Proto: ProtoUDP, Payload: make([]byte, 100)}
	if got := p.WireSize(); got != EtherHeader+IPHeader+UDPHeader+100 {
		t.Errorf("WireSize = %d", got)
	}
	p.Proto = ProtoTCP
	if got := p.WireSize(); got != EtherHeader+IPHeader+TCPHeader+100 {
		t.Errorf("tcp WireSize = %d", got)
	}
}

func TestPacketClone(t *testing.T) {
	p := &Packet{Payload: []byte("abc")}
	q := p.Clone()
	q.Payload[0] = 'x'
	if p.Payload[0] != 'a' {
		t.Error("clone aliases payload")
	}
}

func TestICMPPing(t *testing.T) {
	a, _, cl := pair(t, sal.LanceModel)
	var rtt sim.Duration
	if err := a.stack.Ping(Addr(10, 0, 0, 2), 1, 16, func(d sim.Duration) { rtt = d }); err != nil {
		t.Fatal(err)
	}
	cl.Run(0)
	if rtt == 0 {
		t.Fatal("no ping reply")
	}
	if rtt < 100*sim.Microsecond || rtt > 2*sim.Millisecond {
		t.Errorf("ping rtt = %v, implausible", rtt)
	}
}

// Each Ping's reply handler is gone once it claims its echo, so sequential
// pings see the same handler walk and therefore the same virtual RTT.
func TestPingRemovesItsHandler(t *testing.T) {
	a, _, cl := pair(t, sal.LanceModel)
	before := len(a.disp.HandlerOwners(EvICMPArrived))
	var rtts []sim.Duration
	for seq := uint16(1); seq <= 5; seq++ {
		if err := a.stack.Ping(Addr(10, 0, 0, 2), seq, 16, func(d sim.Duration) { rtts = append(rtts, d) }); err != nil {
			t.Fatal(err)
		}
		cl.Run(0)
	}
	if got := len(a.disp.HandlerOwners(EvICMPArrived)); got != before {
		t.Errorf("%d handlers on %s after 5 pings, want %d", got, EvICMPArrived, before)
	}
	if len(rtts) != 5 {
		t.Fatalf("%d replies, want 5", len(rtts))
	}
	for i, rtt := range rtts {
		if rtt != rtts[0] {
			t.Errorf("ping %d rtt = %v, want %v (rtts %v)", i+1, rtt, rtts[0], rtts)
		}
	}
	// A request that cannot leave (NIC never connected) must not strand its
	// handler either.
	lone := newNetHost(t, "lone", Addr(10, 0, 0, 3), sal.LanceModel)
	if err := lone.stack.Ping(Addr(10, 0, 0, 2), 1, 16, nil); err == nil {
		t.Fatal("ping over an unconnected NIC succeeded")
	}
	if got := len(lone.disp.HandlerOwners(EvICMPArrived)); got != before {
		t.Errorf("%d handlers after a failed ping, want %d", got, before)
	}
}

func TestUDPEcho(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	if err := b.stack.UDP().Echo(7, InKernelDelivery); err != nil {
		t.Fatal(err)
	}
	var got []byte
	if err := a.stack.UDP().Bind(5000, InKernelDelivery, func(pkt *Packet) {
		got = pkt.Payload
	}); err != nil {
		t.Fatal(err)
	}
	_ = a.stack.UDP().Send(5000, Addr(10, 0, 0, 2), 7, []byte("ping me"))
	cl.Run(0)
	if string(got) != "ping me" {
		t.Errorf("echoed %q", got)
	}
}

func TestUDPPortConflictAndUnbind(t *testing.T) {
	a, _, _ := pair(t, sal.LanceModel)
	if err := a.stack.UDP().Bind(9, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.stack.UDP().Bind(9, nil, nil); err == nil {
		t.Error("duplicate bind accepted")
	}
	a.stack.UDP().Unbind(9)
	if err := a.stack.UDP().Bind(9, nil, nil); err != nil {
		t.Errorf("rebind after unbind: %v", err)
	}
}

func TestUDPGuardedDemux(t *testing.T) {
	// An extension installs on UDP.PktArrived with a port guard — the
	// packet never reaches the port table.
	a, b, cl := pair(t, sal.LanceModel)
	var extGot, portGot int
	_, err := b.disp.Install(EvUDPArrived, func(arg, _ any) any {
		extGot++
		return true // claim
	}, dispatch.InstallOptions{Guard: func(arg any) bool {
		p, ok := arg.(*Packet)
		return ok && p.DstPort == 99
	}})
	if err != nil {
		t.Fatal(err)
	}
	_ = b.stack.UDP().Bind(99, nil, func(*Packet) { portGot++ })
	_ = a.stack.UDP().Send(1, Addr(10, 0, 0, 2), 99, []byte("x"))
	cl.Run(0)
	if extGot != 1 || portGot != 0 {
		t.Errorf("ext=%d port=%d; extension should intercept", extGot, portGot)
	}
}

func TestIPAuthorizerProtocolGuard(t *testing.T) {
	// The IP module's authorizer constrains installers to their declared
	// protocol (paper's worked example).
	a, b, cl := pair(t, sal.LanceModel)
	var got []uint8
	_, err := b.disp.Install(EvIPArrived, func(arg, _ any) any {
		got = append(got, arg.(*Packet).Proto)
		return false // observe only
	}, dispatch.InstallOptions{Installer: domainIdent("proto:17:udp-watcher")})
	if err != nil {
		t.Fatal(err)
	}
	_ = a.stack.UDP().Send(1, Addr(10, 0, 0, 2), 9, []byte("u"))
	_ = a.stack.Ping(Addr(10, 0, 0, 2), 3, 8, nil)
	cl.Run(0)
	for _, p := range got {
		if p != ProtoUDP {
			t.Errorf("watcher saw proto %d", p)
		}
	}
	if len(got) == 0 {
		t.Error("watcher saw nothing")
	}
}

func TestTCPConnectSendClose(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	var serverGot []byte
	serverClosed := false
	err := b.stack.TCP().Listen(80, nil, func(c *Conn) {
		c.OnData = func(c *Conn, data []byte) {
			serverGot = append(serverGot, data...)
		}
		c.OnClose = func(c *Conn) {
			serverClosed = true
			c.Close()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := a.stack.TCP().Connect(Addr(10, 0, 0, 2), 80, nil)
	if err != nil {
		t.Fatal(err)
	}
	conn.OnConnect = func(c *Conn) {
		_ = c.Send([]byte("hello tcp"))
		c.Close()
	}
	cl.Run(0)
	if string(serverGot) != "hello tcp" {
		t.Errorf("server got %q", serverGot)
	}
	if !serverClosed {
		t.Error("server never saw close")
	}
	if conn.State() != StateClosed {
		t.Errorf("client state %v", conn.State())
	}
	if got := a.stack.TCP().Conns() + b.stack.TCP().Conns(); got != 0 {
		t.Errorf("%d connections leaked", got)
	}
}

func TestTCPLargeTransfer(t *testing.T) {
	// Multi-segment transfer exercises windowing and cumulative ACKs.
	a, b, cl := pair(t, sal.LanceModel)
	const total = 64 * 1024
	var received int
	_ = b.stack.TCP().Listen(80, nil, func(c *Conn) {
		c.OnData = func(c *Conn, data []byte) { received += len(data) }
	})
	conn, _ := a.stack.TCP().Connect(Addr(10, 0, 0, 2), 80, nil)
	conn.OnConnect = func(c *Conn) {
		_ = c.Send(make([]byte, total))
	}
	cl.Run(0)
	if received != total {
		t.Errorf("received %d of %d", received, total)
	}
	if conn.Retransmits() != 0 {
		t.Errorf("lossless link retransmitted %d times", conn.Retransmits())
	}
}

func TestTCPRefusedPortGetsReset(t *testing.T) {
	a, _, cl := pair(t, sal.LanceModel)
	conn, _ := a.stack.TCP().Connect(Addr(10, 0, 0, 2), 81, nil)
	connected := false
	conn.OnConnect = func(*Conn) { connected = true }
	cl.Run(sim.Time(2 * sim.Second))
	if connected {
		t.Error("connected to closed port")
	}
	if conn.State() != StateClosed {
		t.Errorf("state = %v, want CLOSED after RST", conn.State())
	}
}

func TestTCPStateStrings(t *testing.T) {
	if StateEstablished.String() != "ESTABLISHED" || StateClosed.String() != "CLOSED" {
		t.Error("state names wrong")
	}
	if (FlagSYN | FlagACK).String() != "SA" {
		t.Errorf("flags = %q", (FlagSYN | FlagACK).String())
	}
}

func TestForwarderUDP(t *testing.T) {
	// Three hosts: client -> mid (forwarder) -> server, and back.
	client := newNetHost(t, "client", Addr(10, 0, 0, 1), sal.LanceModel)
	mid := newNetHost(t, "mid", Addr(10, 0, 0, 2), sal.LanceModel)
	server := newNetHost(t, "server", Addr(10, 0, 0, 3), sal.LanceModel)
	// mid has two NICs: one to client, one to server.
	mid2 := sal.NewNIC(sal.LanceModel, mid.eng, mid.ic, sal.VecNIC1)
	if err := sal.Connect(client.nic, mid.nic); err != nil {
		t.Fatal(err)
	}
	if err := sal.Connect(mid2, server.nic); err != nil {
		t.Fatal(err)
	}
	mid.stack.Attach(mid2)
	mid.stack.AddRoute(Addr(10, 0, 0, 1), mid.nic)
	mid.stack.AddRoute(Addr(10, 0, 0, 3), mid2)

	fwd, err := NewForwarder(mid.stack, ProtoUDP, 7, Addr(10, 0, 0, 3))
	if err != nil {
		t.Fatal(err)
	}
	rev, err := NewReverseForwarder(mid.stack, ProtoUDP, 7, Addr(10, 0, 0, 3), Addr(10, 0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	_ = server.stack.UDP().Echo(7, InKernelDelivery)
	var got []byte
	_ = client.stack.UDP().Bind(5000, nil, func(p *Packet) { got = p.Payload })
	// Client sends to MID's address; the forwarder redirects to server.
	_ = client.stack.UDP().Send(5000, Addr(10, 0, 0, 2), 7, []byte("via mid"))
	cl := sim.NewCluster(client.eng, mid.eng, server.eng)
	cl.Run(0)
	if string(got) != "via mid" {
		t.Fatalf("reply = %q", got)
	}
	if fwd.Forwarded != 1 || rev.Forwarded != 1 {
		t.Errorf("forward counts = %d,%d", fwd.Forwarded, rev.Forwarded)
	}
}

func TestForwarderPreservesTCPEndToEnd(t *testing.T) {
	// TCP through the in-kernel forwarder: the handshake and teardown run
	// end-to-end between client and server (control packets forwarded
	// too) — the property the user-level splice cannot preserve.
	client := newNetHost(t, "client", Addr(10, 0, 0, 1), sal.LanceModel)
	mid := newNetHost(t, "mid", Addr(10, 0, 0, 2), sal.LanceModel)
	server := newNetHost(t, "server", Addr(10, 0, 0, 3), sal.LanceModel)
	mid2 := sal.NewNIC(sal.LanceModel, mid.eng, mid.ic, sal.VecNIC1)
	_ = sal.Connect(client.nic, mid.nic)
	_ = sal.Connect(mid2, server.nic)
	mid.stack.Attach(mid2)
	mid.stack.AddRoute(Addr(10, 0, 0, 1), mid.nic)
	mid.stack.AddRoute(Addr(10, 0, 0, 3), mid2)
	_, _ = NewForwarder(mid.stack, ProtoTCP, 80, Addr(10, 0, 0, 3))
	_, _ = NewReverseForwarder(mid.stack, ProtoTCP, 80, Addr(10, 0, 0, 3), Addr(10, 0, 0, 1))

	var got []byte
	_ = server.stack.TCP().Listen(80, nil, func(c *Conn) {
		c.OnData = func(c *Conn, d []byte) {
			got = append(got, d...)
			c.Close()
		}
	})
	conn, _ := client.stack.TCP().Connect(Addr(10, 0, 0, 2), 80, nil)
	conn.OnConnect = func(c *Conn) { _ = c.Send([]byte("tcp thru fwd")) }
	cl := sim.NewCluster(client.eng, mid.eng, server.eng)
	cl.Run(sim.Time(5 * sim.Second))
	if string(got) != "tcp thru fwd" {
		t.Errorf("server got %q", got)
	}
	// Mid never terminated the connection: no TCP state there.
	if mid.stack.TCP().Conns() != 0 {
		t.Error("forwarder host holds TCP state; splice semantics leaked in")
	}
}

func TestHTTPServerAndClient(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	content := ContentMap{"/index.html": []byte("<h1>SPIN</h1>")}
	srv, err := NewHTTPServer(b.stack, 80, nil, content)
	if err != nil {
		t.Fatal(err)
	}
	var status string
	var body []byte
	err = HTTPGet(a.stack, Addr(10, 0, 0, 2), 80, "/index.html", nil, func(s string, b []byte) {
		status, body = s, b
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(sim.Time(5 * sim.Second))
	if !strings.Contains(status, "200") {
		t.Errorf("status = %q", status)
	}
	if string(body) != "<h1>SPIN</h1>" {
		t.Errorf("body = %q", body)
	}
	if srv.Requests != 1 {
		t.Errorf("requests = %d", srv.Requests)
	}
}

// A torn-down connection's drained send buffer is written into by the
// module's next connection, so a server answering request after request
// allocates its response buffer once.
func TestSendBufferReused(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	page := bytes.Repeat([]byte("spin"), 1000)
	if _, err := NewHTTPServer(b.stack, 80, nil, ContentMap{"/": page}); err != nil {
		t.Fatal(err)
	}
	var storage *byte
	for i := 0; i < 3; i++ {
		var body []byte
		if err := HTTPGet(a.stack, Addr(10, 0, 0, 2), 80, "/", nil, func(_ string, got []byte) { body = got }); err != nil {
			t.Fatal(err)
		}
		cl.Run(0) // through TIME_WAIT: both ends torn down
		if !bytes.Equal(body, page) {
			t.Fatalf("request %d: %d of %d bytes", i, len(body), len(page))
		}
		if cap(body) != len(body) {
			t.Errorf("request %d: response buffer has %d bytes to spare: Content-Length did not size it", i, cap(body)-len(body))
		}
		spare := b.stack.TCP().spareSendBufs
		if len(spare) != 1 || cap(spare[0]) < len(page) {
			t.Fatalf("request %d: server keeps %d spare send buffers, want 1 that held the response", i, len(spare))
		}
		if i == 0 {
			storage = &spare[0][:1][0]
		} else if &spare[0][:1][0] != storage {
			t.Errorf("request %d wrote its response into new storage", i)
		}
	}
	// Data discarded by a close before the handshake leaves storage behind
	// too, and the dead connection keeps no hold on it.
	conn, err := a.stack.TCP().Connect(Addr(10, 0, 0, 2), 80, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.Send(page)
	_ = conn.Close()
	if cap(conn.sendBuf) != 0 || len(a.stack.TCP().spareSendBufs) != 1 {
		t.Errorf("aborted connection holds %d bytes of storage; client keeps %d spares",
			cap(conn.sendBuf), len(a.stack.TCP().spareSendBufs))
	}
}

// A response larger than the send buffer goes out as ACKs free room, and
// the server closes behind its last byte.
func TestHTTPBodyLargerThanSendBuffer(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	page := make([]byte, 600<<10)
	for i := range page {
		page[i] = byte(i*7 + i>>12)
	}
	if _, err := NewHTTPServer(b.stack, 80, nil, ContentMap{"/big": page}); err != nil {
		t.Fatal(err)
	}
	var status string
	var body []byte
	if err := HTTPGet(a.stack, Addr(10, 0, 0, 2), 80, "/big", nil, func(s string, got []byte) { status, body = s, got }); err != nil {
		t.Fatal(err)
	}
	cl.Run(0)
	if status != "HTTP/1.0 200 OK" || !bytes.Equal(body, page) {
		t.Fatalf("status %q, %d of %d body bytes, equal %v", status, len(body), len(page), bytes.Equal(body, page))
	}
	if n := a.stack.TCP().Conns() + b.stack.TCP().Conns(); n != 0 {
		t.Errorf("%d connections left after the transfer", n)
	}
}

func TestHTTP404(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	srv, _ := NewHTTPServer(b.stack, 80, nil, ContentMap{})
	var status string
	_ = HTTPGet(a.stack, Addr(10, 0, 0, 2), 80, "/nope", nil, func(s string, _ []byte) { status = s })
	cl.Run(sim.Time(5 * sim.Second))
	if !strings.Contains(status, "404") {
		t.Errorf("status = %q", status)
	}
	if srv.NotFound != 1 {
		t.Errorf("notfound = %d", srv.NotFound)
	}
}

// Raw requests, well and badly formed, against the server: what comes back
// on the wire (nothing while the request has no blank line).
func TestHTTPServerRequestParsing(t *testing.T) {
	cases := []struct {
		name, req, want string
	}{
		{"well formed", "GET /index.html HTTP/1.0\r\n\r\n", "HTTP/1.0 200 OK"},
		{"with headers", "GET /index.html HTTP/1.0\r\nHost: web\r\nAccept: */*\r\n\r\n", "HTTP/1.0 200 OK"},
		{"missing version", "GET /index.html\r\n\r\n", "HTTP/1.0 200 OK"},
		{"tabs and runs of spaces", "  GET \t /index.html   HTTP/1.0\r\n\r\n", "HTTP/1.0 200 OK"},
		{"bare LF after the request line", "GET /index.html HTTP/1.0\nHost: web\r\n\r\n", "HTTP/1.0 200 OK"},
		{"oversized header", "GET /index.html HTTP/1.0\r\nX-Pad: " + strings.Repeat("a", 8000) + "\r\n\r\n", "HTTP/1.0 200 OK"},
		{"unknown path", "GET /nope HTTP/1.0\r\n\r\n", "HTTP/1.0 404 Not Found"},
		{"empty request line", "\r\n\r\n", "HTTP/1.0 400 Bad Request"},
		{"method only", "GET\r\n\r\n", "HTTP/1.0 400 Bad Request"},
		{"other method", "POST /index.html HTTP/1.0\r\n\r\n", "HTTP/1.0 400 Bad Request"},
		{"lower-case method", "get /index.html HTTP/1.0\r\n\r\n", "HTTP/1.0 400 Bad Request"},
		{"path on the second line", "GET\r\n/index.html HTTP/1.0\r\n\r\n", "HTTP/1.0 400 Bad Request"},
		{"no CRLF", "GET /index.html HTTP/1.0", ""},
		{"bare LF only", "GET /index.html HTTP/1.0\n\n", ""},
		{"one CRLF", "GET /index.html HTTP/1.0\r\n", ""},
	}
	for _, tc := range cases {
		a, b, cl := pair(t, sal.LanceModel)
		if _, err := NewHTTPServer(b.stack, 80, nil, ContentMap{"/index.html": []byte("<h1>SPIN</h1>")}); err != nil {
			t.Fatal(err)
		}
		conn, err := a.stack.TCP().Connect(Addr(10, 0, 0, 2), 80, nil)
		if err != nil {
			t.Fatal(err)
		}
		var resp []byte
		conn.OnConnect = func(c *Conn) { _ = c.Send([]byte(tc.req)) }
		conn.OnData = func(_ *Conn, d []byte) { resp = append(resp, d...) }
		cl.Run(sim.Time(5 * sim.Second))
		status, _, _ := strings.Cut(string(resp), "\r\n")
		if status != tc.want {
			t.Errorf("%s: answered %q, want %q", tc.name, status, tc.want)
		}
		if tc.want == "HTTP/1.0 200 OK" && !strings.HasSuffix(string(resp), "\r\n\r\n<h1>SPIN</h1>") {
			t.Errorf("%s: response %q does not end in the document", tc.name, resp)
		}
	}
}

// Raw responses, well and badly formed, from a server that writes them and
// closes: the status line and body HTTPGet reports.
func TestHTTPGetResponseParsing(t *testing.T) {
	cases := []struct {
		name, resp, status string
		body               []byte
	}{
		{"well formed", "HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nhi", "HTTP/1.0 200 OK", []byte("hi")},
		{"no headers", "HTTP/1.0 404 Not Found\r\n\r\n", "HTTP/1.0 404 Not Found", []byte{}},
		{"blank line inside the body", "HTTP/1.0 200 OK\r\n\r\na\r\n\r\nb", "HTTP/1.0 200 OK", []byte("a\r\n\r\nb")},
		{"oversized header", "HTTP/1.0 200 OK\r\nX-Pad: " + strings.Repeat("a", 8000) + "\r\n\r\nhi", "HTTP/1.0 200 OK", []byte("hi")},
		{"no blank line", "HTTP/1.0 200 OK\r\nContent-Length: 2\r\n", "HTTP/1.0 200 OK", nil},
		{"no CRLF", "HTTP/1.0 200 OK", "HTTP/1.0 200 OK", nil},
		{"bare LF", "HTTP/1.0 200 OK\n\nhi", "HTTP/1.0 200 OK\n\nhi", nil},
		{"empty status line", "\r\n\r\nhi", "", []byte("hi")},
		{"nothing", "", "", nil},
		{"Content-Length past the body", "HTTP/1.0 200 OK\r\nContent-Length: 99999999999\r\n\r\nhi", "HTTP/1.0 200 OK", []byte("hi")},
		{"Content-Length short of the body", "HTTP/1.0 200 OK\r\nContent-Length: 1\r\n\r\nhi", "HTTP/1.0 200 OK", []byte("hi")},
		{"Content-Length not a number", "HTTP/1.0 200 OK\r\nContent-Length: -2\r\n\r\nhi", "HTTP/1.0 200 OK", []byte("hi")},
	}
	for _, tc := range cases {
		a, b, cl := pair(t, sal.LanceModel)
		err := b.stack.TCP().Listen(80, nil, func(c *Conn) {
			c.OnData = func(c *Conn, _ []byte) {
				if tc.resp != "" {
					_ = c.Send([]byte(tc.resp))
				}
				c.Close()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		called := 0
		var status string
		var body []byte
		err = HTTPGet(a.stack, Addr(10, 0, 0, 2), 80, "/", nil, func(s string, b []byte) {
			called++
			status, body = s, b
		})
		if err != nil {
			t.Fatal(err)
		}
		cl.Run(sim.Time(5 * sim.Second))
		if called != 1 {
			t.Errorf("%s: done called %d times", tc.name, called)
		}
		if status != tc.status || !bytes.Equal(body, tc.body) || (body == nil) != (tc.body == nil) {
			t.Errorf("%s: got %q, %q; want %q, %q", tc.name, status, body, tc.status, tc.body)
		}
	}
}

func TestActiveMessages(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	amA, err := NewActiveMessages(a.stack)
	if err != nil {
		t.Fatal(err)
	}
	amB, err := NewActiveMessages(b.stack)
	if err != nil {
		t.Fatal(err)
	}
	var got uint64
	amB.Register(5, func(src IPAddr, arg uint64, payload []byte) {
		got = arg
		// Reply with arg+1 to handler 6 on the source.
		_ = amB.Send(src, 6, arg+1, nil)
	})
	var replied uint64
	amA.Register(6, func(_ IPAddr, arg uint64, _ []byte) { replied = arg })
	_ = amA.Send(Addr(10, 0, 0, 2), 5, 41, []byte("am"))
	cl.Run(0)
	if got != 41 || replied != 42 {
		t.Errorf("got=%d replied=%d", got, replied)
	}
}

func TestRPCRoundTrip(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	amA, _ := NewActiveMessages(a.stack)
	amB, _ := NewActiveMessages(b.stack)
	_ = NewRPC(amB).exportDouble()
	rpcA := NewRPC(amA)
	var result []byte
	if err := rpcA.Call(Addr(10, 0, 0, 2), 7, []byte("abc"), func(r []byte) { result = r }); err != nil {
		t.Fatal(err)
	}
	cl.Run(0)
	if string(result) != "abcabc" {
		t.Errorf("result = %q", result)
	}
	if rpcA.Pending() != 0 {
		t.Errorf("pending = %d", rpcA.Pending())
	}
	if err := rpcA.Call(Addr(10, 0, 0, 2), 7, nil, nil); err == nil {
		t.Error("nil continuation accepted")
	}
}

// exportDouble registers proc 7 = payload doubling; helper keeps the test
// terse.
func (r *RPC) exportDouble() *RPC {
	r.Export(7, func(arg []byte) []byte { return append(arg, arg...) })
	return r
}

func TestVideoMulticast(t *testing.T) {
	// One server, three clients on a shared T3 segment (star via
	// separate links in the model: each client its own NIC pair).
	srv := newNetHost(t, "server", Addr(10, 0, 1, 1), sal.T3Model)
	var clients []*host
	var engines []*sim.Engine
	engines = append(engines, srv.eng)
	for i := 0; i < 3; i++ {
		c := newNetHost(t, "client", Addr(10, 0, 1, byte(10+i)), sal.T3Model)
		nic := sal.NewNIC(sal.T3Model, srv.eng, srv.ic, sal.InterruptVector(10+i))
		if err := sal.Connect(nic, c.nic); err != nil {
			t.Fatal(err)
		}
		srv.stack.AddRoute(c.stack.IP, nic)
		clients = append(clients, c)
		engines = append(engines, c.eng)
	}
	vs, err := NewVideoServer(srv.stack, 6000, func(frame int) []byte {
		return make([]byte, 1400)
	})
	if err != nil {
		t.Fatal(err)
	}
	var vcs []*VideoClient
	for _, c := range clients {
		vc, err := NewVideoClient(c.stack, 6000)
		if err != nil {
			t.Fatal(err)
		}
		vcs = append(vcs, vc)
		vs.Subscribe(c.stack.IP)
	}
	for f := 0; f < 5; f++ {
		vs.SendFrame(f)
	}
	sim.NewCluster(engines...).Run(0)
	if vs.FramesSent != 5 {
		t.Errorf("frames sent = %d", vs.FramesSent)
	}
	if vs.PacketsSent != 15 {
		t.Errorf("packets sent = %d, want 15 (5 frames x 3 clients)", vs.PacketsSent)
	}
	for i, vc := range vcs {
		if vc.FramesShown != 5 {
			t.Errorf("client %d showed %d frames", i, vc.FramesShown)
		}
		if vc.LastFrame != 4 {
			t.Errorf("client %d last frame %d", i, vc.LastFrame)
		}
	}
}

func TestGraphRendering(t *testing.T) {
	a, _, _ := pair(t, sal.LanceModel)
	_ = a.stack.UDP().Bind(7, nil, nil)
	_ = a.stack.TCP().Listen(80, nil, nil)
	g := a.stack.Graph()
	for _, want := range []string{"IP.PacketArrived", "UDP ports: 7", "TCP listeners: 80", "proto:1:ping"} {
		if !strings.Contains(g, want) {
			t.Errorf("graph missing %q:\n%s", want, g)
		}
	}
}

func TestStackNoRoute(t *testing.T) {
	eng := sim.NewEngine()
	disp := dispatch.New(eng, &sim.SPINProfile)
	s, err := NewStack("lonely", Addr(1, 1, 1, 1), eng, &sim.SPINProfile, disp)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SendIP(&Packet{Dst: Addr(2, 2, 2, 2)}); err != ErrNoRoute {
		t.Errorf("err = %v, want ErrNoRoute", err)
	}
}

func TestVideoClientWithFramebuffer(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	vc, err := NewVideoClient(b.stack, 6000)
	if err != nil {
		t.Fatal(err)
	}
	fb := sal.NewFramebuffer(b.eng.Clock, 320, 240)
	vc.AttachFramebuffer(fb)
	vs, err := NewVideoServer(a.stack, 6000, func(int) []byte {
		frame := make([]byte, 1000)
		for i := range frame {
			frame[i] = 0x5A
		}
		return frame
	})
	if err != nil {
		t.Fatal(err)
	}
	vs.Subscribe(b.stack.IP)
	vs.SendFrame(0)
	cl.Run(0)
	frames, _ := fb.Stats()
	if frames != 1 {
		t.Fatalf("framebuffer frames = %d", frames)
	}
	px, _ := fb.Pixel(0, 0)
	if px != 0x5A {
		t.Errorf("pixel = %#x, want 0x5A", px)
	}
}

// Loopback: a packet addressed to the stack's own IP re-enters the receive
// path without a NIC (there is none here), so a service colocated with its
// own client — the DNS authority resolving through itself, a balancer
// probing a local backend — works like any remote one.
func TestLoopbackSelfDelivery(t *testing.T) {
	eng := sim.NewEngine()
	disp := dispatch.New(eng, &sim.SPINProfile)
	s, err := NewStack("solo", Addr(10, 0, 0, 7), eng, &sim.SPINProfile, disp)
	if err != nil {
		t.Fatal(err)
	}

	// UDP round trip to self: request in, reply out, both over loopback.
	var got []byte
	if err := s.UDP().Bind(7, InKernelDelivery, func(pkt *Packet) {
		_ = s.UDP().Send(7, pkt.Src, pkt.SrcPort, append([]byte("re:"), pkt.Payload...))
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.UDP().Bind(9000, InKernelDelivery, func(pkt *Packet) {
		got = append([]byte(nil), pkt.Payload...)
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.UDP().Send(9000, s.IP, 7, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	eng.Run(0)
	if string(got) != "re:ping" {
		t.Fatalf("loopback UDP reply = %q", got)
	}
	received, sent := s.Stats()
	if sent != 2 || received != 2 {
		t.Errorf("stats = %d received, %d sent; want 2, 2", received, sent)
	}

	// TCP handshake to self: SYN, SYN-ACK and ACK all loop back.
	if err := s.TCP().Listen(80, InKernelDelivery, func(c *Conn) {}); err != nil {
		t.Fatal(err)
	}
	established := false
	conn, err := s.TCP().Connect(s.IP, 80, nil)
	if err != nil {
		t.Fatal(err)
	}
	conn.OnConnect = func(*Conn) { established = true }
	eng.Run(0)
	if !established {
		t.Fatal("loopback TCP connect never established")
	}
}

// counter reads one sample from src's metrics surface.
func counter(src metrics.Source, name string) int64 { return int64(metrics.Value(src, name)) }

// page renders src's samples under prefix.
func page(t *testing.T, prefix string, src metrics.Source) string {
	t.Helper()
	var sb strings.Builder
	if err := metrics.Write(&sb, prefix, src); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// tcpStats is the TCP module's metrics, read back for assertions.
type tcpStats struct {
	Conns, HalfOpen                                                 int
	HalfOpenEvicted, Accepted, Resets, TimedOut                     int64
	FastRecoveries, RACKMarkedLost, TLPProbes, RTOs, DSACKsReceived int64
}

func tcpStatsOf(t *TCP) tcpStats {
	m := map[string]int64{}
	t.Metrics(func(name string, v float64) { m[strings.TrimPrefix(name, "net_tcp_")] = int64(v) })
	return tcpStats{
		Conns: int(m["conns"]), HalfOpen: int(m["half_open"]), HalfOpenEvicted: m["half_open_evicted"],
		Accepted: m["accepted"], Resets: m["resets"], TimedOut: m["timed_out"],
		FastRecoveries: m["fast_recoveries"], RACKMarkedLost: m["rack_marked_lost"],
		TLPProbes: m["tlp_probes"], RTOs: m["rtos"], DSACKsReceived: m["dsacks_received"],
	}
}
