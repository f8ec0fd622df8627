package spin_test

// Gates: the invariants CI enforces on the networking hot paths. Virtual
// time is deterministic, so those rows assert equality — a deliberate
// cost-model or protocol change edits the constant in the same diff. Host
// speed appears only as a same-run ratio or an allocation count; wall-clock
// cost against the parent commit is the benchmark's job (BENCHMARK.json).

import (
	"math"
	"strconv"
	"testing"
	"time"

	"spin/internal/bcode"
	"spin/internal/dispatch"
	"spin/internal/metrics"
	"spin/internal/netstack"
	"spin/internal/sal"
	"spin/internal/sim"
	"spin/internal/vnet"
)

// namedStar builds the 3-machine named-service star the naming gates run
// on: client, nameserver and web server around one switch with 200µs edges.
func namedStar(t *testing.T) *vnet.Internet {
	t.Helper()
	edge := vnet.LinkModel{Latency: 200 * sim.Microsecond}
	in, err := vnet.NewBuilder(1).
		Machine("web", 0).
		Machine("client", 0).
		Machine("ns", 0).
		Switch("s0").
		Link("web", "s0", edge).
		Link("client", "s0", edge).
		Link("ns", "s0", edge).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := in.EnableDNS("ns"); err != nil {
		t.Fatal(err)
	}
	return in
}

// resolveLatency is an uncached hostname resolution across the star: query
// out, authoritative answer back.
func resolveLatency(t *testing.T) sim.Duration {
	in := namedStar(t)
	client := in.Machine("client")
	done := false
	start := client.Clock.Now()
	client.Resolver.LookupA("web.spin.test", func(_ []netstack.IPAddr, err error) {
		if err != nil {
			t.Error(err)
		}
		done = true
	})
	if !in.RunUntil(func() bool { return done }, 0) {
		t.Fatal("resolve hung")
	}
	return client.Clock.Now().Sub(start)
}

// dialLatency is a socket-layer dial to a listening peer: SYN out, SYN|ACK
// back, Dial returns on the client's transition to ESTABLISHED.
func dialLatency(t *testing.T) sim.Duration {
	in := namedStar(t)
	if err := in.Machine("web").Stack.TCP().Listen(80, nil, func(*netstack.Conn) {}); err != nil {
		t.Fatal(err)
	}
	dialer, err := in.Dialer("client")
	if err != nil {
		t.Fatal(err)
	}
	client := in.Machine("client")
	start := client.Clock.Now()
	c, err := dialer.Dial("tcp", netstack.SockAddr{IP: in.IP("web"), Port: 80}.String())
	if err != nil {
		t.Fatal(err)
	}
	virt := client.Clock.Now().Sub(start)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	in.Driver().Drain() // let the FIN exchange retire the conn
	return virt
}

// An extra round trip or a spurious retransmit moves these by ~40%; one
// extra ProtoLayer charge by ~2%. Either is a real protocol change.
func TestVirtualTimeGates(t *testing.T) {
	gates := []struct {
		name    string
		measure func(*testing.T) sim.Duration
		want    sim.Duration
	}{
		{"DNS resolve over the named star", resolveLatency, 930240},
		{"dial to ESTABLISHED over the named star", dialLatency, 949376},
	}
	for _, g := range gates {
		if got := g.measure(t); got != g.want {
			t.Errorf("%s: %d virtual ns, want exactly %d", g.name, got, g.want)
		}
	}
}

// benchStack is a lone stack that packets are driven straight into.
func benchStack(t *testing.T) *netstack.Stack {
	t.Helper()
	eng := sim.NewEngine()
	prof := &sim.SPINProfile
	st, err := netstack.NewStack("gate", netstack.Addr(10, 0, 0, 1), eng, prof, dispatch.New(eng, prof))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// Steady-state segment delivery on one established connection — table
// lookup, state machine, pooled ACK — runs at zero heap allocations per
// packet. One allocation per packet is the whole regression, so no slack.
func TestTCPSteadyRXAllocFree(t *testing.T) {
	st := benchStack(t)
	tcp := st.TCP()
	consumed := 0
	if err := tcp.Listen(80, nil, func(c *netstack.Conn) {
		c.OnData = func(_ *netstack.Conn, d []byte) { consumed += len(d) }
	}); err != nil {
		t.Fatal(err)
	}
	pkt := &netstack.Packet{
		Src: netstack.Addr(10, 0, 0, 2), SrcPort: 4000,
		Dst: st.IP, DstPort: 80, Proto: netstack.ProtoTCP,
	}
	pkt.Flags, pkt.Seq, pkt.Window = netstack.FlagSYN, 10, 32*1024
	tcp.Deliver(pkt)
	pkt.Flags, pkt.Seq, pkt.Ack = netstack.FlagACK, 11, 1001
	tcp.Deliver(pkt)
	if tcp.Conns() != 1 {
		t.Fatal("handshake failed")
	}
	pkt.Payload = make([]byte, 32)
	pkt.Seq = 11
	const runs = 10000
	allocs := testing.AllocsPerRun(runs, func() {
		tcp.Deliver(pkt)
		pkt.Seq += uint32(len(pkt.Payload))
	})
	if allocs != 0 {
		t.Errorf("steady-state TCP RX allocates %.2f per packet, want 0", allocs)
	}
	// AllocsPerRun makes one warm-up call before the counted runs.
	if want := (runs + 1) * len(pkt.Payload); consumed != want {
		t.Errorf("consumed %d bytes, want %d: segments were not delivered in order", consumed, want)
	}
}

// An uncached resolve over the named star allocates what it hands back:
// the caller's address slice and the cache entry's. The codec decodes into
// storage the resolver reuses, the server answers from its stack, and the
// resolver's reply port stays bound between lookups. The parent commit
// spent 38 objects a resolve.
func TestUncachedResolveAllocs(t *testing.T) {
	in := namedStar(t)
	r := in.Machine("client").Resolver
	want := in.IP("web")
	resolved := 0
	cb := func(addrs []netstack.IPAddr, err error) {
		if err != nil || len(addrs) != 1 || addrs[0] != want {
			t.Fatalf("LookupA = %v, %v; want [%v]", addrs, err, want)
		}
		resolved++
	}
	const runs = 200
	allocs := testing.AllocsPerRun(runs, func() {
		r.FlushCache()
		r.LookupA("web.spin.test", cb)
		in.Run(0)
	})
	if allocs > 8 {
		t.Errorf("an uncached resolve allocates %v objects, want at most 8", allocs)
	}
	if resolved != runs+1 {
		t.Errorf("%d lookups resolved, want %d", resolved, runs+1)
	}
}

// twoHostStar is two hosts around one switch, the smallest topology in which
// a frame crosses a link, a switch and a second link.
func twoHostStar(t *testing.T) *vnet.Internet {
	t.Helper()
	in, err := vnet.Star(2, vnet.LinkModel{Latency: 50 * sim.Microsecond}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// Moving a packet through the simulator allocates nothing: not an event,
// not a closure, not a boxed frame. Pinned the way RX is, with no slack,
// for a bare frame and for a datagram, because one object per hop is the
// whole regression (the parent commit spent 4.5 a hop and 9 a datagram),
// and for a full-size TCP segment, whose payload is summed once and whose
// header is encoded on each link into a buffer the link keeps.
func TestFrameAcrossSwitchAllocFree(t *testing.T) {
	for _, row := range []struct {
		name    string
		proto   uint8
		payload int
	}{
		{"bare UDP frame", netstack.ProtoUDP, 0},
		{"full-size TCP segment", netstack.ProtoTCP, 1460},
	} {
		in := twoHostStar(t)
		nic0, nic1, dst := in.Machine("h0").NICs()[0], in.Machine("h1").NICs()[0], in.IP("h1")
		arrived := 0
		nic1.OnReceive = func(f sal.NetFrame) bool {
			arrived++
			sal.ReleaseFrame(f)
			return true
		}
		const runs = 1000
		allocs := testing.AllocsPerRun(runs, func() {
			pkt := netstack.AllocPacket()
			pkt.Dst, pkt.Proto, pkt.TTL = dst, row.proto, 32
			pkt.AllocPayload(row.payload)
			if err := nic0.Send(sal.NetFrame{Size: pkt.WireSize(), Payload: pkt}); err != nil {
				t.Fatal(err)
			}
			in.Run(0)
		})
		if allocs != 0 {
			t.Errorf("%s: a frame over link, switch and link allocates %v, want 0", row.name, allocs)
		}
		if arrived != runs+1 {
			t.Errorf("%s: %d frames arrived, want %d", row.name, arrived, runs+1)
		}
	}
}

func TestUDPDatagramAcrossStarAllocFree(t *testing.T) {
	in := twoHostStar(t)
	got := 0
	if err := in.Machine("h1").Stack.UDP().Bind(9, nil, func(*netstack.Packet) { got++ }); err != nil {
		t.Fatal(err)
	}
	udp, dst, payload := in.Machine("h0").Stack.UDP(), in.IP("h1"), make([]byte, 256)
	const runs = 1000
	allocs := testing.AllocsPerRun(runs, func() {
		if err := udp.Send(100, dst, 9, payload); err != nil {
			t.Fatal(err)
		}
		in.Run(0)
	})
	if allocs != 0 {
		t.Errorf("a UDP datagram from sender to bound handler allocates %v, want 0", allocs)
	}
	if got != runs+1 {
		t.Errorf("%d datagrams delivered, want %d", got, runs+1)
	}
}

// One full segment on an established connection, from Send through the
// star to the peer's OnData and the ACK back to the sender: the segment is
// cut from the send buffer into a pooled packet, the retransmit timer is the
// connection's own event, and every step of the way is a recycled one.
func TestTCPSegmentAcrossStarAllocFree(t *testing.T) {
	in := twoHostStar(t)
	received := 0
	if err := in.Machine("h1").Stack.TCP().Listen(80, netstack.InKernelDelivery, func(c *netstack.Conn) {
		c.OnData = func(_ *netstack.Conn, d []byte) { received += len(d) }
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := in.Machine("h0").Stack.TCP().Connect(in.IP("h1"), 80, netstack.InKernelDelivery)
	if err != nil {
		t.Fatal(err)
	}
	in.Run(0)
	segment := make([]byte, netstack.DefaultMSS)
	const runs = 1000
	allocs := testing.AllocsPerRun(runs, func() {
		if err := conn.Send(segment); err != nil {
			t.Fatal(err)
		}
		in.Run(0)
	})
	if allocs != 0 {
		t.Errorf("a data segment and its ACK allocate %v, want 0", allocs)
	}
	if want := (runs + 1) * len(segment); received != want || conn.Retransmits() != 0 {
		t.Errorf("received %d bytes with %d retransmits, want %d with none", received, conn.Retransmits(), want)
	}
}

// passAllFilter is the canonical packet filter (UDP to one port is dropped,
// everything else passes) aimed at a port no test packet uses: the full
// program runs on every packet and drops none.
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

// An attached XDP program may at most double the per-packet cost of the
// synchronous receive path (link, IP, transport, UDP delivery). Both sides
// are timed in this process, interleaved, and the minimum each way is
// compared: host speed cancels, so the gate needs no recorded baseline.
// Fifty short timings, not five long ones: under -race on a loaded 2-core
// host a ~1ms window usually escapes preemption where a ~10ms one does not
// (measured spread of the ratio 1.37-1.67 against 1.27-1.93).
func TestXDPOverheadAtMostTwiceBareRX(t *testing.T) {
	const packets, rounds = 2000, 50
	bare, xdp := benchStack(t), benchStack(t)
	if _, err := xdp.AttachXDP("pass-all", passAllFilter()); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for _, st := range []*netstack.Stack{bare, xdp} {
		if err := st.UDP().Bind(9, netstack.InKernelDelivery, func(*netstack.Packet) { delivered++ }); err != nil {
			t.Fatal(err)
		}
	}
	pkt := &netstack.Packet{
		Src: netstack.Addr(10, 0, 0, 2), SrcPort: 4000,
		Dst: bare.IP, DstPort: 9, Proto: netstack.ProtoUDP,
		TTL: 64, Payload: make([]byte, 32),
	}
	timeRX := func(st *netstack.Stack) time.Duration {
		start := time.Now()
		for i := 0; i < packets; i++ {
			st.ReceiveOne(pkt)
		}
		return time.Since(start)
	}
	bestBare, bestXDP := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for r := 0; r < rounds; r++ {
		bestBare = min(bestBare, timeRX(bare))
		bestXDP = min(bestXDP, timeRX(xdp))
	}
	if want := 2 * rounds * packets; delivered != want {
		t.Fatalf("delivered %d packets, want %d", delivered, want)
	}
	if runs, drops := xdp.XDP().Stats(); runs != rounds*packets || drops != 0 {
		t.Fatalf("xdp runs=%d drops=%d, want runs=%d drops=0", runs, drops, rounds*packets)
	}
	ratio := float64(bestXDP) / float64(bestBare)
	t.Logf("rx with xdp %v, bare %v per %d packets: %.2fx", bestXDP, bestBare, packets, ratio)
	if ratio > 2 {
		t.Errorf("RX with an XDP program costs %.2fx bare RX, want <= 2x", ratio)
	}
}

// A raise by handle is the by-name raise without its event-table lookup, so
// it may cost no more than one. The event is the one every UDP datagram
// raises on a stack's dispatcher; both ways are timed in this process,
// interleaved, and the minimum each way is compared, as above.
func TestRaiseByHandleNoDearerThanByName(t *testing.T) {
	const raises, rounds = 2000, 50
	d := benchStack(t).Dispatcher()
	ev := d.Event(netstack.EvUDPArrived)
	pkt := any(&netstack.Packet{Proto: netstack.ProtoUDP})
	timeRaise := func(byHandle bool) time.Duration {
		start := time.Now()
		for i := 0; i < raises; i++ {
			if byHandle {
				d.RaiseEvent(ev, pkt)
			} else {
				d.Raise(netstack.EvUDPArrived, pkt)
			}
		}
		return time.Since(start)
	}
	bestName, bestHandle := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for r := 0; r < rounds; r++ {
		bestName = min(bestName, timeRaise(false))
		bestHandle = min(bestHandle, timeRaise(true))
	}
	ratio := float64(bestHandle) / float64(bestName)
	t.Logf("raise by handle %v, by name %v per %d raises: %.2fx", bestHandle, bestName, raises, ratio)
	if ratio > 1 {
		t.Errorf("a raise by handle costs %.2fx a raise by name, want <= 1x", ratio)
	}
}

// arrival is one OnData call at a receiver: how much of the stream it now
// holds, and when.
type arrival struct {
	upto int
	at   sim.Time
}

// flow is one bulk transfer's outcome.
type flow struct {
	arrivals    []arrival
	established sim.Time // the sender's clock when its SYN was answered
	retransmits int64
}

// done is when the receiver held the whole stream.
func (f flow) done() sim.Time { return f.arrivals[len(f.arrivals)-1].at }

// reached is when the receiver first held the stream's first n bytes.
func (f flow) reached(n int) sim.Time {
	for _, a := range f.arrivals {
		if a.upto >= n {
			return a.at
		}
	}
	return 0
}

// runFlows streams size bytes from l<i> to r<i> for each of n pairs of a
// dumbbell at once, every byte checked against its offset on arrival, until
// all have arrived whole.
func runFlows(t *testing.T, in *vnet.Internet, n, size int) []flow {
	t.Helper()
	flows := make([]flow, n)
	complete := 0
	for i := range flows {
		f := &flows[i]
		left, right := in.Machine("l"+strconv.Itoa(i)), in.Machine("r"+strconv.Itoa(i))
		got := 0
		err := right.Stack.TCP().Listen(80, netstack.InKernelDelivery, func(c *netstack.Conn) {
			c.OnData = func(_ *netstack.Conn, b []byte) {
				for k, v := range b {
					if v != byte((got+k)*7+i) {
						t.Fatalf("flow %d: byte %d arrived as %#x", i, got+k, v)
					}
				}
				got += len(b)
				f.arrivals = append(f.arrivals, arrival{got, right.Clock.Now()})
				if got == size {
					complete++
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		conn, err := left.Stack.TCP().Connect(right.Stack.IP, 80, netstack.InKernelDelivery)
		if err != nil {
			t.Fatal(err)
		}
		// The writer fills the send buffer, and refills it each time ACKs
		// have half emptied it, until the stream is queued.
		stream := make([]byte, size)
		for k := range stream {
			stream[k] = byte(k*7 + i)
		}
		queued := 0
		fill := func(c *netstack.Conn) {
			n := min(len(stream)-queued, netstack.SendBufSize-c.Buffered())
			if n == 0 {
				return
			}
			if err := c.Send(stream[queued : queued+n]); err != nil {
				t.Fatal(err)
			}
			queued += n
			if c.Buffered() > netstack.SendBufSize {
				t.Fatalf("flow %d: send buffer holds %d bytes, bound %d", i, c.Buffered(), netstack.SendBufSize)
			}
		}
		conn.OnConnect = func(c *netstack.Conn) {
			f.established = left.Clock.Now()
			fill(c)
		}
		conn.OnSent = fill
		defer func() { f.retransmits = conn.Retransmits() }()
	}
	if !in.RunUntil(func() bool { return complete == n }, sim.Time(10*60*sim.Second)) {
		t.Fatalf("%d of %d flows complete", complete, n)
	}
	return flows
}

// benchDumbbell is the bulk benchmark's topology: 100 µs edges around a
// 2 ms bottleneck that loses and reorders as given.
func benchDumbbell(t *testing.T, pairs int, bottleneck vnet.LinkModel) *vnet.Internet {
	t.Helper()
	return seededDumbbell(t, pairs, bottleneck, 23)
}

// seededDumbbell is benchDumbbell from another topology seed, which decides
// where the link's dice fall. When the test ends, it runs the topology until
// nothing is left to happen and checks that every pooled packet allocated
// since it was built has been released: none is leaked by a queue, a link
// or a connection's out-of-order queue.
func seededDumbbell(t *testing.T, pairs int, bottleneck vnet.LinkModel, seed uint64) *vnet.Internet {
	t.Helper()
	bottleneck.Latency = 2 * sim.Millisecond
	in, err := vnet.Dumbbell(pairs, pairs, vnet.LinkModel{Latency: 100 * sim.Microsecond}, bottleneck, seed)
	if err != nil {
		t.Fatal(err)
	}
	live := netstack.LivePackets()
	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		in.Run(0)
		if now := netstack.LivePackets(); now != live {
			t.Errorf("%d pooled packets live after the run, %d before it", now, live)
		}
	})
	return in
}

// What loss costs a stream, in virtual time and so exactly. The bounds are
// the protocol's promises; the pinned figures say when anything moved.
func TestLossRecoveryGates(t *testing.T) {
	// One data frame in the middle of a transfer is dropped on the
	// bottleneck. Its bytes reach the application one round trip and three
	// duplicate ACKs later than they would have, not a timeout later.
	t.Run("a single loss costs a round trip", func(t *testing.T) {
		const size, victim = 512 << 10, 150
		var hole int // stream offset just past the dropped frame's first byte
		run := func(drop bool) flow {
			in, frames := benchDumbbell(t, 1, vnet.LinkModel{}), 0
			in.Link("bottleneck").AddHook(func(ev *vnet.FrameEvent) vnet.Verdict {
				pkt, _ := ev.Frame.Payload.(*netstack.Packet)
				if pkt == nil || len(pkt.Payload) == 0 || ev.Dir != "sl->sr" {
					return vnet.Pass
				}
				if frames++; frames != victim {
					return vnet.Pass
				}
				hole = int(pkt.Seq-101) + 1 // a client's first data byte is sequence number 101
				if drop {
					return vnet.Drop
				}
				return vnet.Pass
			})
			return runFlows(t, in, 1, size)[0]
		}
		clean, lossy := run(false), run(true)
		if clean.retransmits != 0 || lossy.retransmits != 1 {
			t.Fatalf("%d retransmissions without the drop and %d with it, want 0 and 1", clean.retransmits, lossy.retransmits)
		}
		rtt := sim.Duration(clean.established)
		recovery := lossy.reached(hole).Sub(clean.reached(hole))
		if recovery > rtt+sim.Millisecond {
			t.Errorf("the dropped bytes arrived %v late with a round trip of %v, want at most a round trip and 1 ms", recovery, rtt)
		}
		if rtt != 4553376 || recovery != 4786828 {
			t.Errorf("round trip %d ns, recovery %d ns: the pinned figures moved", rtt, recovery)
		}
	})

	t.Run("a clean link retransmits nothing", func(t *testing.T) {
		f := runFlows(t, benchDumbbell(t, 1, vnet.LinkModel{}), 1, 8<<20)[0]
		if f.retransmits != 0 {
			t.Errorf("%d retransmissions in 8 MiB over a loss-free dumbbell", f.retransmits)
		}
	})

	// The send buffer is a ring made by the first write, here of ring bytes.
	// The writer tops it up to ring bytes whenever an ACK frees room, so it
	// never grows, never drains mid-stream and wraps: the segment holding
	// stream bytes ring-1 and ring is cut from the ring's last bytes and its
	// first. That segment is dropped, and the resend, cut from the same two
	// pieces, must deliver the stream byte for byte.
	t.Run("a segment straddling the end of the send ring is resent", func(t *testing.T) {
		const ring, size = 10*netstack.DefaultMSS + 700, 64 << 10
		const firstSeq = 101 // the client's ISS is 100; its SYN takes one
		in := benchDumbbell(t, 1, vnet.LinkModel{})
		left, right := in.Machine("l0"), in.Machine("r0")
		dropped := 0
		in.Link("bottleneck").AddHook(func(ev *vnet.FrameEvent) vnet.Verdict {
			pkt, _ := ev.Frame.Payload.(*netstack.Packet)
			if pkt == nil || len(pkt.Payload) == 0 || ev.Dir != "sl->sr" {
				return vnet.Pass
			}
			if off := int(pkt.Seq - firstSeq); off < ring && off+len(pkt.Payload) > ring && dropped == 0 {
				dropped++
				return vnet.Drop
			}
			return vnet.Pass
		})
		got := 0
		if err := right.Stack.TCP().Listen(80, netstack.InKernelDelivery, func(c *netstack.Conn) {
			c.OnData = func(_ *netstack.Conn, b []byte) {
				for k, v := range b {
					if v != byte((got+k)*7) {
						t.Fatalf("byte %d arrived as %#x", got+k, v)
					}
				}
				got += len(b)
			}
		}); err != nil {
			t.Fatal(err)
		}
		conn, err := left.Stack.TCP().Connect(right.Stack.IP, 80, netstack.InKernelDelivery)
		if err != nil {
			t.Fatal(err)
		}
		stream := make([]byte, size)
		for k := range stream {
			stream[k] = byte(k * 7)
		}
		queued := 0
		fill := func(c *netstack.Conn) {
			if n := min(size-queued, ring-c.Buffered()); n > 0 {
				if err := c.Send(stream[queued : queued+n]); err != nil {
					t.Fatal(err)
				}
				queued += n
			}
			if c.Buffered() > netstack.SendBufSize {
				t.Fatalf("send buffer holds %d bytes, bound %d", c.Buffered(), netstack.SendBufSize)
			}
		}
		conn.OnConnect, conn.OnSent = fill, fill
		if !in.RunUntil(func() bool { return got == size }, sim.Time(60*sim.Second)) {
			t.Fatalf("%d of %d bytes arrived", got, size)
		}
		if dropped != 1 || conn.Retransmits() == 0 {
			t.Errorf("%d straddling segments dropped, %d retransmissions; want 1 and at least 1", dropped, conn.Retransmits())
		}
	})

	// The last data frame of a transfer is dropped: nothing sent after it
	// can be SACKed, so no ACK says it is missing. A probe two round trips
	// after it went out resends it.
	t.Run("a tail loss costs a probe, not a timeout", func(t *testing.T) {
		const size = 64 << 10
		run := func(drop bool) (flow, *netstack.TCP) {
			in, dropped := benchDumbbell(t, 1, vnet.LinkModel{}), false
			in.Link("bottleneck").AddHook(func(ev *vnet.FrameEvent) vnet.Verdict {
				pkt, _ := ev.Frame.Payload.(*netstack.Packet)
				if !drop || dropped || pkt == nil || ev.Dir != "sl->sr" || int(pkt.Seq-101)+len(pkt.Payload) != size {
					return vnet.Pass
				}
				dropped = true
				return vnet.Drop
			})
			f := runFlows(t, in, 1, size)[0]
			return f, in.Machine("l0").Stack.TCP()
		}
		clean, _ := run(false)
		lossy, tcp := run(true)
		rtt := sim.Duration(clean.established)
		if late := lossy.done().Sub(clean.done()); late > 3*rtt {
			t.Errorf("the last frame's bytes arrived %v late with a round trip of %v, want within 3 round trips", late, rtt)
		}
		probes, rtos := metrics.Value(tcp, "net_tcp_tlp_probes"), metrics.Value(tcp, "net_tcp_rtos")
		if probes != 1 || rtos != 0 || lossy.retransmits != 1 {
			t.Errorf("%v probes, %v timeouts, %d retransmissions; want 1, 0 and 1", probes, rtos, lossy.retransmits)
		}
		if late := lossy.done().Sub(clean.done()); late != 9448744 {
			t.Errorf("tail recovered %d ns late: the pinned figure moved", late)
		}
	})

	// The benchmark's two link models, two flows each way of looking.
	const size = 2 << 20
	last := func(fs []flow) sim.Time { return max(fs[0].done(), fs[1].done()) }
	clean := runFlows(t, benchDumbbell(t, 2, vnet.LinkModel{}), 2, size)
	// Reno's rate under loss p is MSS/RTT · √(3/2p) (Mathis et al.): on the
	// lossy link, 31.4 Mb/s a flow, so 2 MiB takes 534 ms. Every lossy flow,
	// on this topology and on eight others, finishes within 1.2x that and
	// without a retransmission timeout.
	const lossRate = 0.01
	rtt := clean[0].established.Sub(0)
	reno := sim.Duration(float64(size) / (netstack.DefaultMSS * math.Sqrt(1.5/lossRate)) * float64(rtt))
	lossyFlows := func(t *testing.T, seed uint64) []flow {
		t.Helper()
		in := seededDumbbell(t, 2, vnet.LinkModel{
			Loss: lossRate, Reorder: 0.02, ReorderDelay: 300 * sim.Microsecond,
		}, seed)
		fs := runFlows(t, in, 2, size)
		for i, f := range fs {
			rtos := metrics.Value(in.Machine("l"+strconv.Itoa(i)).Stack.TCP(), "net_tcp_rtos")
			if f.done() > sim.Time(reno*12/10) || rtos != 0 {
				t.Errorf("topology %d: flow %d finished at %v after %v timeouts, want within 1.2 x %v (Reno's rate) and none",
					seed, i, sim.Duration(f.done()), rtos, reno)
			}
		}
		return fs
	}
	t.Run("loss costs no more than Reno and is shared", func(t *testing.T) {
		lossy := lossyFlows(t, 23)
		a, b := lossy[0].done(), lossy[1].done()
		if ratio := float64(max(a, b)) / float64(min(a, b)); ratio > 1.5 {
			t.Errorf("competing flows finished at %v and %v, %.2fx apart, want at most 1.5x", sim.Duration(a), sim.Duration(b), ratio)
		}
		if last(clean) != 202344692 || a != 578879220 || b != 429494140 {
			t.Errorf("clean %d ns, lossy flows %d and %d ns: the pinned figures moved", last(clean), a, b)
		}
		for seed := uint64(8); seed <= 15; seed++ {
			lossyFlows(t, seed)
		}
	})

	// A frame held back 300 µs is overtaken by the dozen behind it. Until
	// a D-SACK shows RACK that this path reorders, that looks like a loss:
	// one spurious recovery per flow is allowed, and then none.
	t.Run("reordering alone costs nothing", func(t *testing.T) {
		reordered := runFlows(t, benchDumbbell(t, 2, vnet.LinkModel{
			Reorder: 0.02, ReorderDelay: 300 * sim.Microsecond,
		}), 2, size)
		for i, f := range reordered {
			if f.retransmits > 2 {
				t.Errorf("flow %d retransmitted %d segments over a link that loses nothing, want at most 2", i, f.retransmits)
			}
		}
		if ratio := float64(last(reordered)) / float64(last(clean)); ratio > 1.05 {
			t.Errorf("2%% reorder takes %.3fx the clean link's time, want at most 1.05x", ratio)
		}
	})
}
