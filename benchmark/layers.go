package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"spin"
	"spin/internal/bcode"
	"spin/internal/bench"
	"spin/internal/dispatch"
	"spin/internal/domain"
	"spin/internal/fs"
	"spin/internal/lb"
	"spin/internal/netstack"
	"spin/internal/sal"
	"spin/internal/sim"
	"spin/internal/trace"
	"spin/internal/vnet"
)

// Layer probes: each is a tight loop around one layer's public calls, timed
// from outside. They do not depend on the workload or the seed. A *_ns
// probe is the median over probeBatches fixed-work batches, after one
// warm-up batch, of host nanoseconds per call; an *_allocs probe is the
// same median of heap allocations per call; *_virt_* probes are virtual
// time and repeat exactly.

// probeDefs declares every probe metric, in the order BENCHMARK.json lists
// them. README.md says which end-to-end metric each should move.
var probeDefs = []metricDef{
	{Name: "host.calib_ns", Unit: "ns", Better: lower},

	{Name: "sim.engine.step_ns", Unit: "ns", Better: lower},
	{Name: "sim.cluster.step_ns.m8", Unit: "ns", Better: lower},
	{Name: "sim.cluster.step_ns.m64", Unit: "ns", Better: lower},
	{Name: "sim.cluster.step_ns.m512", Unit: "ns", Better: lower},
	{Name: "sim.timer.cancel_ns", Unit: "ns", Better: lower},

	{Name: "dispatch.raise_ns.h1", Unit: "ns", Better: lower},
	{Name: "dispatch.raise_ns.h8", Unit: "ns", Better: lower},
	{Name: "dispatch.raise_guarded_ns", Unit: "ns", Better: lower},
	{Name: "dispatch.raise_bcode_guard_ns", Unit: "ns", Better: lower},
	{Name: "dispatch.raise_allocs", Unit: "count", Better: lower},
	{Name: "dispatch.install_remove_ns", Unit: "ns", Better: lower},

	{Name: "netstack.rx.udp_ns", Unit: "ns", Better: lower},
	{Name: "netstack.rx.udp_xdp_ns", Unit: "ns", Better: lower},
	{Name: "netstack.rx.allocs", Unit: "count", Better: lower},
	{Name: "netstack.tcp.deliver_ns", Unit: "ns", Better: lower},
	{Name: "netstack.tcp.deliver_allocs", Unit: "count", Better: lower},
	{Name: "netstack.tcp.send_ns_per_seg", Unit: "ns", Better: lower},
	{Name: "netstack.tcp.send_allocs_per_seg", Unit: "count", Better: lower},
	{Name: "netstack.tcp.conn_setup_ns", Unit: "ns", Better: lower},
	{Name: "netstack.dial_virt_us", Unit: "us_virt", Better: lower},
	{Name: "netstack.dns.resolve_virt_us", Unit: "us_virt", Better: lower},
	{Name: "netstack.dns.codec_ns", Unit: "ns", Better: lower},
	{Name: "netstack.http.serve_ns", Unit: "ns", Better: lower},
	{Name: "netstack.sockets.handoff_ns", Unit: "ns", Better: lower},
	{Name: "netstack.wire.encode_ns", Unit: "ns", Better: lower},
	{Name: "netstack.wire.parse_ns", Unit: "ns", Better: lower},
	{Name: "netstack.wire.parse_allocs", Unit: "count", Better: lower},

	{Name: "vnet.link.hop_ns", Unit: "ns", Better: lower},
	{Name: "vnet.link.hop_allocs", Unit: "count", Better: lower},
	{Name: "vnet.build_ms.fattree256", Unit: "ms", Better: lower},
	{Name: "vnet.build_ms.star256", Unit: "ms", Better: lower},
	{Name: "sal.nic.tx_rx_ns", Unit: "ns", Better: lower},

	{Name: "bcode.verify_ns", Unit: "ns", Better: lower},
	{Name: "bcode.run_compiled_ns", Unit: "ns", Better: lower},
	{Name: "bcode.run_interp_ns", Unit: "ns", Better: lower},
	{Name: "bcode.run_allocs", Unit: "count", Better: lower},

	{Name: "fs.webcache.hit_ns", Unit: "ns", Better: lower},
	{Name: "fs.webcache.miss_ns", Unit: "ns", Better: lower},

	{Name: "strand.forkjoin_virt_us", Unit: "us_virt", Better: lower},
	{Name: "strand.pingpong_virt_us", Unit: "us_virt", Better: lower},
	{Name: "strand.parallel_makespan_virt_us.c1", Unit: "us_virt", Better: lower},
	{Name: "strand.parallel_makespan_virt_us.c4", Unit: "us_virt", Better: lower},
	{Name: "strand.parallel_steals.c4", Unit: "count", Better: higher},
	{Name: "strand.switch_host_ns", Unit: "ns", Better: lower},

	{Name: "lb.pick_ns", Unit: "ns", Better: lower},
	{Name: "lb.pick_allocs", Unit: "count", Better: lower},
	{Name: "lb.failover_reconverge_virt_ms", Unit: "ms_virt", Better: lower},
	{Name: "trace.observe_ns", Unit: "ns", Better: lower},
}

const probeBatches = 5

// sink keeps results the compiler could otherwise prove unused.
var sink uint64

// timeCalls times fn, which makes calls calls into the layer under test,
// and returns the medians of host ns per call and allocations per call.
func timeCalls(calls int, fn func()) (ns, allocs float64) {
	var nss, as []float64
	var before, after runtime.MemStats
	for b := 0; b <= probeBatches; b++ {
		runtime.ReadMemStats(&before)
		start := time.Now()
		fn()
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if b == 0 {
			continue // warm-up
		}
		nss = append(nss, float64(elapsed.Nanoseconds())/float64(calls))
		as = append(as, float64(after.Mallocs-before.Mallocs)/float64(calls))
	}
	return median(nss), median(as)
}

// probes collects probe results and the first failure.
type probes struct {
	values map[string]float64
	sc     scale
	err    error
}

// n scales a full-size iteration count down for tiny runs.
func (p *probes) n(full int) int { return p.sc.pick(full, full/200+1) }

func (p *probes) fail(name string, err error) {
	if p.err == nil && err != nil {
		p.err = fmt.Errorf("probe %s: %w", name, err)
	}
}

// runProbes runs every layer probe.
func runProbes(sc scale) (map[string]float64, error) {
	p := &probes{values: make(map[string]float64, len(probeDefs)), sc: sc}
	runtime.GC()
	for _, probe := range []func(*probes){
		probeCalib, probeSim, probeDispatch, probeRX, probeTCP, probeNaming,
		probeHTTPServe, probeHandoff, probeWire, probeVnet, probeNIC,
		probeBCode, probeWebCache, probeStrand, probeLB, probeTrace,
	} {
		probe(p)
		if p.err != nil {
			return nil, p.err
		}
	}
	return p.values, nil
}

// probeCalib is a fixed integer loop that touches no memory: it moves only
// when the host does, which is what it is for.
func probeCalib(p *probes) {
	n := p.n(2_000_000)
	ns, _ := timeCalls(n, func() {
		x := uint64(88172645463325252)
		for i := 0; i < n; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		sink += x
	})
	p.values["host.calib_ns"] = ns
}

// ticker keeps one self-rescheduling event alive on an engine.
func ticker(e *sim.Engine, period sim.Duration) {
	var tick func()
	tick = func() { e.After(period, tick) }
	e.After(period, tick)
}

func probeSim(p *probes) {
	// One engine, 64 live timers: the event heap alone.
	eng := sim.NewEngine()
	for i := 0; i < 64; i++ {
		ticker(eng, sim.Duration(100+i))
	}
	n := p.n(100_000)
	p.values["sim.engine.step_ns"], _ = timeCalls(n, func() {
		for i := 0; i < n; i++ {
			eng.Step()
		}
	})

	// A cluster of m engines with one live timer each: what choosing the
	// next engine costs as machines are added.
	for _, m := range []int{8, 64, 512} {
		cl := sim.NewCluster()
		for i := 0; i < m; i++ {
			e := sim.NewEngine()
			ticker(e, sim.Duration(1000+i))
			cl.Add(e)
		}
		n := p.n(4_000_000 / (m + 32))
		ns, _ := timeCalls(n, func() {
			for i := 0; i < n; i++ {
				if !cl.Step() {
					p.fail("sim.cluster.step", errors.New("cluster drained"))
					return
				}
			}
		})
		p.values[fmt.Sprintf("sim.cluster.step_ns.m%d", m)] = ns
	}

	// Arm, cancel, and lazily discard: TCP's retransmit timer on every ACK.
	eng = sim.NewEngine()
	n = p.n(200_000)
	p.values["sim.timer.cancel_ns"], _ = timeCalls(n, func() {
		for i := 0; i < n; i++ {
			eng.After(200*sim.Millisecond, func() {}).Cancel()
			eng.NextEventTime()
		}
	})
	if eng.Pending() != 0 {
		p.fail("sim.timer.cancel", fmt.Errorf("%d cancelled timers still queued", eng.Pending()))
	}
}

func probeDispatch(p *probes) {
	d := dispatch.New(sim.NewEngine(), &sim.SPINProfile)
	nop := func(_, _ any) any { return nil }
	define := func(name string) {
		p.fail(name, d.Define(name, dispatch.DefineOptions{Primary: nop}))
	}
	install := func(name string, g dispatch.Guard) dispatch.HandlerRef {
		ref, err := d.Install(name, nop, dispatch.InstallOptions{Guard: g})
		p.fail(name, err)
		return ref
	}
	n := p.n(100_000)
	raise := func(name string) (ns, allocs float64) {
		// The argument is boxed once, outside the loop: the probe is the
		// dispatcher, not interface conversion.
		args := [8]any{0, 1, 2, 3, 4, 5, 6, 7}
		return timeCalls(n, func() {
			for i := 0; i < n; i++ {
				d.Raise(name, args[i&7])
			}
		})
	}

	// The paper's claim: one handler is a procedure call.
	define("Probe.H1")
	p.values["dispatch.raise_ns.h1"], p.values["dispatch.raise_allocs"] = raise("Probe.H1")

	define("Probe.H8")
	for i := 0; i < 7; i++ {
		install("Probe.H8", nil)
	}
	p.values["dispatch.raise_ns.h8"], _ = raise("Probe.H8")

	// Eight guarded handlers, one of which matches each raise.
	define("Probe.Guarded")
	for i := 0; i < 8; i++ {
		want := i
		install("Probe.Guarded", func(arg any) bool { return arg.(int) == want })
	}
	p.values["dispatch.raise_guarded_ns"], _ = raise("Probe.Guarded")

	// One handler behind a verified-bytecode guard.
	guard, err := dispatch.VerifiedGuard(
		bcode.New(bcode.LdCtx(1, 0), bcode.MovImm(0, 0), bcode.JneImm(1, 3, 1), bcode.MovImm(0, 1), bcode.Exit()),
		bcode.Spec{Words: 1},
		func(arg any, ctx *bcode.Context) bool {
			v, ok := arg.(int)
			ctx.W[0] = uint64(v)
			return ok
		})
	p.fail("dispatch.raise_bcode_guard", err)
	if err != nil {
		return
	}
	define("Probe.BCode")
	install("Probe.BCode", guard)
	p.values["dispatch.raise_bcode_guard_ns"], _ = raise("Probe.BCode")

	// The copy-on-write write side, beside the read side above.
	n = p.n(30_000)
	p.values["dispatch.install_remove_ns"], _ = timeCalls(n, func() {
		for i := 0; i < n; i++ {
			ref, err := d.Install("Probe.H8", nop, dispatch.InstallOptions{})
			if err == nil {
				err = d.Remove(ref)
			}
			if err != nil {
				p.fail("dispatch.install_remove", err)
				return
			}
		}
	})
}

// bareStack is a protocol stack with no NIC: packets are handed straight
// to its receive entry points.
func bareStack() (*netstack.Stack, error) {
	eng := sim.NewEngine()
	return netstack.NewStack("probe", netstack.Addr(10, 0, 0, 1), eng, &sim.SPINProfile,
		dispatch.New(eng, &sim.SPINProfile))
}

func probeRX(p *probes) {
	for _, xdp := range []bool{false, true} {
		name := "netstack.rx.udp_ns"
		if xdp {
			name = "netstack.rx.udp_xdp_ns"
		}
		st, err := bareStack()
		if err != nil {
			p.fail(name, err)
			return
		}
		delivered := 0
		p.fail(name, st.UDP().Bind(9, netstack.InKernelDelivery, func(*netstack.Packet) { delivered++ }))
		if xdp {
			_, err := st.AttachXDP("probe", passAllFilter())
			p.fail(name, err)
		}
		pkt := &netstack.Packet{
			Src: netstack.Addr(10, 0, 0, 2), SrcPort: 4000,
			Dst: st.IP, DstPort: 9, Proto: netstack.ProtoUDP,
			TTL: 64, Payload: make([]byte, udpPayload),
		}
		n := p.n(150_000)
		ns, allocs := timeCalls(n, func() {
			for i := 0; i < n; i++ {
				st.ReceiveOne(pkt)
			}
		})
		if delivered != n*(probeBatches+1) {
			p.fail(name, fmt.Errorf("delivered %d of %d", delivered, n*(probeBatches+1)))
		}
		p.values[name] = ns
		if !xdp {
			p.values["netstack.rx.allocs"] = allocs
		}
	}
}

// wiredPair boots two machines joined back to back by one wire.
func wiredPair() (a, b *spin.Machine, cl *sim.Cluster, err error) {
	if a, err = spin.NewMachine("probe-a", spin.Config{IP: netstack.Addr(10, 0, 0, 1)}); err != nil {
		return
	}
	if b, err = spin.NewMachine("probe-b", spin.Config{IP: netstack.Addr(10, 0, 0, 2)}); err != nil {
		return
	}
	if err = sal.Connect(a.AddNIC(vnet.VirtualEtherModel), b.AddNIC(vnet.VirtualEtherModel)); err != nil {
		return
	}
	return a, b, sim.NewCluster(a.Engine, b.Engine), nil
}

func probeTCP(p *probes) {
	// Steady-state delivery of in-order segments on one connection,
	// straight into the TCP module.
	st, err := bareStack()
	if err != nil {
		p.fail("netstack.tcp.deliver", err)
		return
	}
	tcp := st.TCP()
	consumed := 0
	p.fail("netstack.tcp.deliver", tcp.Listen(80, nil, func(c *netstack.Conn) {
		c.OnData = func(_ *netstack.Conn, d []byte) { consumed += len(d) }
	}))
	pkt := &netstack.Packet{
		Src: netstack.Addr(10, 0, 0, 2), SrcPort: 4000,
		Dst: st.IP, DstPort: 80, Proto: netstack.ProtoTCP,
	}
	pkt.Flags, pkt.Seq, pkt.Window = netstack.FlagSYN, 10, 32*1024
	tcp.Deliver(pkt)
	pkt.Flags, pkt.Seq, pkt.Ack = netstack.FlagACK, 11, 1001
	tcp.Deliver(pkt)
	pkt.Payload = make([]byte, 32)
	seq := uint32(11)
	n := p.n(300_000)
	p.values["netstack.tcp.deliver_ns"], p.values["netstack.tcp.deliver_allocs"] = timeCalls(n, func() {
		for i := 0; i < n; i++ {
			pkt.Seq = seq
			tcp.Deliver(pkt)
			seq += 32
		}
	})
	if consumed != 32*n*(probeBatches+1) {
		p.fail("netstack.tcp.deliver", fmt.Errorf("consumed %d bytes of %d", consumed, 32*n*(probeBatches+1)))
	}

	// The transmit side: full segments from Send to the peer's OnData and
	// the ACK back, over a direct wire.
	a, b, cl, err := wiredPair()
	if err != nil {
		p.fail("netstack.tcp.send", err)
		return
	}
	received := 0
	p.fail("netstack.tcp.send", b.Stack.TCP().Listen(80, netstack.InKernelDelivery, func(c *netstack.Conn) {
		c.OnData = func(_ *netstack.Conn, d []byte) { received += len(d) }
	}))
	conn, err := a.Stack.TCP().Connect(b.Stack.IP, 80, netstack.InKernelDelivery)
	if err != nil {
		p.fail("netstack.tcp.send", err)
		return
	}
	cl.Run(0)
	const segs = 64
	chunk := make([]byte, segs*netstack.DefaultMSS)
	rounds := p.n(200)
	p.values["netstack.tcp.send_ns_per_seg"], p.values["netstack.tcp.send_allocs_per_seg"] = timeCalls(rounds*segs, func() {
		for i := 0; i < rounds; i++ {
			if err := conn.Send(chunk); err != nil {
				p.fail("netstack.tcp.send", err)
				return
			}
			cl.Run(0)
		}
	})
	if want := len(chunk) * rounds * (probeBatches + 1); received != want {
		p.fail("netstack.tcp.send", fmt.Errorf("received %d bytes of %d", received, want))
	}

	// Passive open: SYN + final ACK per connection into one listener.
	var setups []float64
	for i := 0; i < 3; i++ {
		r, err := bench.MeasureConnScaling(p.n(1 << 14))
		if err != nil {
			p.fail("netstack.tcp.conn_setup", err)
			return
		}
		setups = append(setups, r.SetupNsPerConn)
	}
	p.values["netstack.tcp.conn_setup_ns"] = median(setups)
}

// probeNaming measures one uncached resolve and one dial across the
// 3-machine star in virtual time (the old dns_resolve_ns and
// dial_established_ns gates), and the DNS codec in host time.
func probeNaming(p *probes) {
	star, err := newHTTPStar(1, 0)
	if err != nil {
		p.fail("netstack.dns.resolve", err)
		return
	}
	client := star.client
	done := false
	start := client.Clock.Now()
	client.Resolver.LookupA("web.spin.test", func(_ []netstack.IPAddr, err error) {
		p.fail("netstack.dns.resolve", err)
		done = true
	})
	stepUntil(star.in.Cluster(), &done)
	p.values["netstack.dns.resolve_virt_us"] = client.Clock.Now().Sub(start).Micros()
	stepAll(star.in.Cluster())

	dialer, err := star.in.Dialer("client")
	if err != nil {
		p.fail("netstack.dial", err)
		return
	}
	start = client.Clock.Now()
	c, err := dialer.Dial("tcp", netstack.SockAddr{IP: star.in.IP("web"), Port: 80}.String())
	if err != nil {
		p.fail("netstack.dial", err)
		return
	}
	p.values["netstack.dial_virt_us"] = client.Clock.Now().Sub(start).Micros()
	p.fail("netstack.dial", c.Close())
	star.in.Driver().Drain()

	reply := &netstack.DNSMessage{
		ID: 7, Response: true, RD: true, RA: true,
		Questions: []netstack.DNSQuestion{{Name: "web.spin.test", Type: netstack.DNSTypeA}},
		Answers:   []netstack.DNSRR{{Name: "web.spin.test", Type: netstack.DNSTypeA, TTL: 60, Data: []byte{10, 0, 0, 1}}},
	}
	n := p.n(30_000)
	p.values["netstack.dns.codec_ns"], _ = timeCalls(n, func() {
		for i := 0; i < n; i++ {
			wire, err := netstack.EncodeDNSMessage(reply)
			if err == nil {
				_, err = netstack.ParseDNSMessage(wire)
			}
			if err != nil {
				p.fail("netstack.dns.codec", err)
				return
			}
		}
	})
}

// probeHTTPServe is one whole HTTP transaction by address over a direct
// wire — handshake, request, in-kernel serve, teardown — with no switch and
// no resolver in the way.
func probeHTTPServe(p *probes) {
	a, b, cl, err := wiredPair()
	if err != nil {
		p.fail("netstack.http.serve", err)
		return
	}
	paths, bodies := pages(sim.NewRand(1), 1)
	p.fail("netstack.http.serve", serveHTTP(b, paths, bodies))
	good := 0
	n := p.n(1_500)
	p.values["netstack.http.serve_ns"], _ = timeCalls(n, func() {
		for i := 0; i < n; i++ {
			err := netstack.HTTPGet(a.Stack, b.Stack.IP, 80, paths[0], netstack.InKernelDelivery,
				func(_ string, body []byte) {
					if len(body) == pageSize {
						good++
					}
				})
			if err != nil {
				p.fail("netstack.http.serve", err)
				return
			}
			cl.Run(0)
		}
	})
	if good != n*(probeBatches+1) {
		p.fail("netstack.http.serve", fmt.Errorf("%d of %d responses complete", good, n*(probeBatches+1)))
	}
}

// probeHandoff is the blocking adapters' hand-off: one injection into the
// simulation and one blocked caller woken by the event it scheduled.
func probeHandoff(p *probes) {
	eng := sim.NewEngine()
	drv := netstack.NewDriver(eng)
	fired := false
	n := p.n(100_000)
	p.values["netstack.sockets.handoff_ns"], _ = timeCalls(n, func() {
		for i := 0; i < n; i++ {
			drv.Run(func() { eng.After(sim.Microsecond, func() { fired = true }) })
			drv.WaitUntil(func() bool {
				if !fired {
					return false
				}
				fired = false
				return true
			})
		}
	})
}

func probeWire(p *probes) {
	pkt := &netstack.Packet{
		Src: netstack.Addr(10, 0, 0, 2), SrcPort: 4000,
		Dst: netstack.Addr(10, 0, 0, 1), DstPort: 80, Proto: netstack.ProtoTCP,
		Flags: netstack.FlagACK, Seq: 1, Ack: 2, Window: 32 * 1024, TTL: 64,
		Payload: make([]byte, 512),
	}
	var buf []byte
	n := p.n(300_000)
	p.values["netstack.wire.encode_ns"], _ = timeCalls(n, func() {
		for i := 0; i < n; i++ {
			buf = netstack.AppendPacket(buf[:0], pkt)
		}
	})
	p.values["netstack.wire.parse_ns"], p.values["netstack.wire.parse_allocs"] = timeCalls(n, func() {
		for i := 0; i < n; i++ {
			got, err := netstack.ParsePacket(buf)
			if err != nil || len(got.Payload) != len(pkt.Payload) {
				p.fail("netstack.wire.parse", fmt.Errorf("round trip: %v", err))
				return
			}
		}
	})
}

func probeVnet(p *probes) {
	// One datagram across a 2-host star is two link hops (the old
	// vnet_hop_ns gate).
	in, err := vnet.Star(2, vnet.LinkModel{Latency: 50 * sim.Microsecond}, 1)
	if err != nil {
		p.fail("vnet.link.hop", err)
		return
	}
	got := 0
	p.fail("vnet.link.hop", in.Machine("h1").Stack.UDP().Bind(9, nil, func(*netstack.Packet) { got++ }))
	udp, dst, payload := in.Machine("h0").Stack.UDP(), in.IP("h1"), make([]byte, 256)
	n := p.n(20_000)
	ns, allocs := timeCalls(2*n, func() {
		for i := 0; i < n; i++ {
			if err := udp.Send(100, dst, 9, payload); err != nil {
				p.fail("vnet.link.hop", err)
				return
			}
			in.Run(0)
		}
	})
	if got != n*(probeBatches+1) {
		p.fail("vnet.link.hop", fmt.Errorf("delivered %d of %d", got, n*(probeBatches+1)))
	}
	p.values["vnet.link.hop_ns"], p.values["vnet.link.hop_allocs"] = ns, allocs

	// Building the two big topologies, once each: it is seconds, not
	// nanoseconds, and it is what fleet_fattree_http's set-up is made of.
	hosts := p.sc.pick(256, 16)
	edge := vnet.LinkModel{Latency: 50 * sim.Microsecond}
	runtime.GC()
	start := time.Now()
	_, err = vnet.FatTree(2, hosts/16, 16, vnet.LinkModel{Latency: 100 * sim.Microsecond}, edge, 1)
	p.values["vnet.build_ms.fattree256"] = float64(time.Since(start).Nanoseconds()) / 1e6
	p.fail("vnet.build.fattree", err)
	runtime.GC()
	start = time.Now()
	_, err = vnet.Star(hosts, edge, 1)
	p.values["vnet.build_ms.star256"] = float64(time.Since(start).Nanoseconds()) / 1e6
	p.fail("vnet.build.star", err)
}

// probeNIC is one minimum-size frame from NIC to NIC over a direct wire:
// driver send, wire, receive interrupt, driver receive upcall.
func probeNIC(p *probes) {
	ea, eb := sim.NewEngine(), sim.NewEngine()
	a := sal.NewNIC(vnet.VirtualEtherModel, ea, sal.NewInterruptController(ea, &sim.SPINProfile), sal.VecNIC0)
	b := sal.NewNIC(vnet.VirtualEtherModel, eb, sal.NewInterruptController(eb, &sim.SPINProfile), sal.VecNIC0)
	p.fail("sal.nic.tx_rx", sal.Connect(a, b))
	got := 0
	b.OnReceive = func(sal.NetFrame) bool { got++; return true }
	cl := sim.NewCluster(ea, eb)
	n := p.n(100_000)
	p.values["sal.nic.tx_rx_ns"], _ = timeCalls(n, func() {
		for i := 0; i < n; i++ {
			if err := a.Send(sal.NetFrame{Size: 64}); err != nil {
				p.fail("sal.nic.tx_rx", err)
				return
			}
			cl.Run(0)
		}
	})
	if got != n*(probeBatches+1) {
		p.fail("sal.nic.tx_rx", fmt.Errorf("received %d of %d frames", got, n*(probeBatches+1)))
	}
}

func probeBCode(p *probes) {
	prog := passAllFilter()
	n := p.n(50_000)
	p.values["bcode.verify_ns"], _ = timeCalls(n, func() {
		for i := 0; i < n; i++ {
			if err := bcode.Verify(prog, netstack.PacketSpec); err != nil {
				p.fail("bcode.verify", err)
				return
			}
		}
	})
	// Both engines on the same verified program, alternating a drop and a
	// pass so both branch directions run (the old bcode_filter_ns gate).
	var ctx bcode.Context
	ctx.W[netstack.CtxProto] = uint64(netstack.ProtoUDP)
	compiled := prog.Compile()
	n = p.n(500_000)
	var drops uint64
	p.values["bcode.run_compiled_ns"], p.values["bcode.run_allocs"] = timeCalls(n, func() {
		for i := 0; i < n; i++ {
			ctx.W[netstack.CtxDstPort] = uint64(6 + i&1)
			drops += compiled(&ctx)
		}
	})
	p.values["bcode.run_interp_ns"], _ = timeCalls(n, func() {
		for i := 0; i < n; i++ {
			ctx.W[netstack.CtxDstPort] = uint64(6 + i&1)
			drops += prog.Run(&ctx)
		}
	})
	if want := uint64(n/2) * 2 * (probeBatches + 1); drops != want {
		p.fail("bcode.run", fmt.Errorf("%d drops, want %d", drops, want))
	}
}

func probeWebCache(p *probes) {
	m, err := spin.NewMachine("probe", spin.Config{IP: netstack.Addr(10, 0, 0, 1)})
	if err != nil {
		p.fail("fs.webcache", err)
		return
	}
	paths, bodies := pages(sim.NewRand(1), 2)
	for i := range paths {
		p.fail("fs.webcache", m.FS.Create(paths[i], bodies[i]))
	}
	get := func(wc *fs.WebCache, name string, n int) float64 {
		ns, _ := timeCalls(n, func() {
			for i := 0; i < n; i++ {
				if body, ok := wc.Get(paths[i&1]); !ok || len(body) != pageSize {
					p.fail(name, errors.New("document not served"))
					return
				}
			}
		})
		return ns
	}
	// Room for both documents: every Get after the first two hits.
	p.values["fs.webcache.hit_ns"] = get(fs.NewWebCache(m.FS, 1<<20, 64<<10), "fs.webcache.hit", p.n(200_000))
	// Room for one: alternating between two evicts and refills every time.
	p.values["fs.webcache.miss_ns"] = get(fs.NewWebCache(m.FS, pageSize, 64<<10), "fs.webcache.miss", p.n(20_000))
}

func probeStrand(p *probes) {
	t3, ok := bench.Lookup("table3")
	if !ok {
		p.fail("strand.forkjoin", errors.New("no table3 experiment"))
		return
	}
	tb, err := t3.Run()
	if err != nil {
		p.fail("strand.forkjoin", err)
		return
	}
	// Column 4 is SPIN's kernel threads.
	for label, name := range map[string]string{"Fork-Join": "strand.forkjoin_virt_us", "Ping-Pong": "strand.pingpong_virt_us"} {
		for _, r := range tb.Rows {
			if r.Label == label && len(r.Measured) > 4 {
				p.values[name] = r.Measured[4]
			}
		}
		if _, ok := p.values[name]; !ok {
			p.fail(name, fmt.Errorf("table3 has no %s row", label))
		}
	}

	r4, err := bench.MeasureParallelStrands(4)
	p.fail("strand.parallel_makespan", err)
	p.values["strand.parallel_makespan_virt_us.c4"] = r4.Makespan.Micros()
	p.values["strand.parallel_steals.c4"] = float64(r4.Steals)

	// Host cost of one strand switch: the standard batch on one CPU.
	var perSwitch []float64
	for i := 0; i <= probeBatches; i++ {
		start := time.Now()
		r1, err := bench.MeasureParallelStrands(1)
		elapsed := time.Since(start)
		if err != nil || r1.Switches == 0 {
			p.fail("strand.switch", fmt.Errorf("%d switches, err %v", r1.Switches, err))
			return
		}
		if i > 0 {
			perSwitch = append(perSwitch, float64(elapsed.Nanoseconds())/float64(r1.Switches))
		}
		p.values["strand.parallel_makespan_virt_us.c1"] = r1.Makespan.Micros()
	}
	p.values["strand.switch_host_ns"] = median(perSwitch)
}

func probeLB(p *probes) {
	ring := lb.NewRing(9, 0)
	members := make([]string, 10)
	for i := range members {
		members[i] = fmt.Sprintf("b%d", i)
	}
	ring.SetMembers(members)
	n := p.n(500_000)
	picked := 0
	p.values["lb.pick_ns"], p.values["lb.pick_allocs"] = timeCalls(n, func() {
		for i := 0; i < n; i++ {
			picked += len(ring.Pick(uint64(i) * 0x9e3779b97f4a7c15))
		}
	})
	sink += uint64(picked)

	// Kill one of five replicated backends and time, in virtual ms, how
	// long active health checks take to eject it (the old
	// failover_reconverge_ns gate; no client traffic).
	const killAt = sim.Time(500 * sim.Millisecond)
	edge := vnet.LinkModel{Latency: 200 * sim.Microsecond}
	bld := vnet.NewBuilder(9)
	names := []string{"b0", "b1", "b2", "b3", "b4"}
	for _, n := range append(names, "client", "ns") {
		bld.Machine(n, 0)
	}
	bld.Switch("s0")
	for _, n := range append(names, "client", "ns") {
		bld.Link(n, "s0", edge)
	}
	in, err := bld.Build()
	if err == nil {
		err = in.EnableDNS("ns")
	}
	for _, n := range names {
		if err == nil {
			_, err = netstack.NewHTTPServerOwned("httpd-"+n, in.Machine(n).Stack, 80,
				netstack.InKernelDelivery, netstack.ContentMap{"/": []byte("ok " + n)})
		}
		if err == nil {
			err = in.WithdrawOnDestroy(n, "httpd-"+n)
		}
	}
	if err != nil {
		p.fail("lb.failover_reconverge", err)
		return
	}
	bal, err := in.Balancer("client", lb.Config{}, names...)
	if err != nil {
		p.fail("lb.failover_reconverge", err)
		return
	}
	in.At(0, bal.StartHealth)
	in.At(killAt, func() { in.Machine("b1").DestroyDomain(domain.Identity{Name: "httpd-b1"}) })
	if !in.RunUntil(func() bool { return bal.LastEjectAt() >= killAt }, sim.Time(10*sim.Second)) {
		p.fail("lb.failover_reconverge", errors.New("never re-converged"))
		return
	}
	p.values["lb.failover_reconverge_virt_ms"] = bal.LastEjectAt().Sub(killAt).Millis()
	bal.StopHealth()
}

func probeTrace(p *probes) {
	tr := trace.New(traceRing)
	n := p.n(500_000)
	p.values["trace.observe_ns"], _ = timeCalls(n, func() {
		for i := 0; i < n; i++ {
			tr.Observe("probe.series", sim.Duration(i&1023))
		}
	})
}
