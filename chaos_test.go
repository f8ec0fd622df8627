package spin

// Chaos torture suite: the deterministic fault-injection harness
// (internal/faultinject) drives failures through every wired site —
// dispatcher invocation, netstack RX and reassembly, TCP delivery, TCP
// connect, the VM pager, strand entry and verified-filter actions
// ("bcode.run") — on booted machines. The kernel must survive
// every injected fault, count each exactly once, quarantine repeat
// offenders at the configured threshold, and replay the identical run from
// the same seed.
//
// CI runs this file (with the teardown tests) as the chaos smoke step
// under -race; change chaosSeed locally to explore other schedules.

import (
	"fmt"
	"sync/atomic"
	"testing"

	"spin/internal/bcode"
	"spin/internal/dispatch"
	"spin/internal/domain"
	"spin/internal/faultinject"
	"spin/internal/metrics"
	"spin/internal/netstack"
	"spin/internal/sal"
	"spin/internal/sim"
	"spin/internal/strand"
	"spin/internal/unixsrv"
	"spin/internal/vm"
)

const chaosSeed = 0xC4A05

// chaosSummary is everything one torture run observes. Two runs from the
// same seed must produce identical summaries (compared as strings).
type chaosSummary struct {
	DispatchFired      int64
	DispatchFaults     int64
	Quarantined        int
	QuarantineAtFaults int64
	RXFired            int64
	RXDropSchedule     uint64
	SinkPackets        int64
	ReasmFired         int64
	ReasmEvicted       int64
	ReasmPending       int
	FragDelivered      int64
	PagerFired         int64
	PagerFailures      int
	StrandFired        int64
	StrandFaults       int64
	StrandBodiesRan    int64
	MCPUStrandFired    int64
	MCPUStolenFaults   int
	MCPUSteals         int64
	MCPUBodiesRan      int64
	TCPFired           int64
	TCPDelivered       int
	DialFired          int64
	DialErrors         int
	DialLateConnects   int
	DialRetransmits    int64
	BCodeFired         int64
	BCodeQuarantined   int
	BCodeDropped       int64
	BCodeDelivered     int64
	TotalInjected      int64
}

// render flattens the summary for replay comparison. (Not a String method:
// that would recurse through %+v.)
func (s chaosSummary) render() string { type plain chaosSummary; return fmt.Sprintf("%+v", plain(s)) }

// chaosDispatch injects panics into handler invocations: every one is
// contained and counted exactly once, and the faulty extension handler is
// quarantined at the boot policy's threshold while the primary keeps
// serving.
func chaosDispatch(t *testing.T, seed uint64, sum *chaosSummary) {
	t.Helper()
	m, err := NewMachine("chaos-dispatch", Config{})
	if err != nil {
		t.Fatal(err)
	}
	inj := m.EnableFaultInjection(seed)
	inj.Arm(faultinject.Rule{
		Site: "dispatch.invoke", Kind: faultinject.KindPanic,
		Probability: 0.6, MaxFires: 45,
	})
	if err := m.Dispatcher.Define("Chaos.E", dispatch.DefineOptions{
		Primary: func(_, _ any) any { return "primary" },
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Dispatcher.Install("Chaos.E", func(_, _ any) any { return "ext" },
		dispatch.InstallOptions{Installer: domain.Identity{Name: "chaos-ext"}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		m.Dispatcher.Raise("Chaos.E", nil)
	}
	sum.DispatchFired = inj.FiredAt("dispatch.invoke")
	if sum.DispatchFired != 45 {
		t.Errorf("dispatch.invoke fired %d, want the full 45", sum.DispatchFired)
	}
	total, _ := m.Dispatcher.ExtensionFaults()
	sum.DispatchFaults = total
	if total != sum.DispatchFired {
		t.Errorf("contained faults %d != injected %d (each must count exactly once)", total, sum.DispatchFired)
	}
	q := m.Dispatcher.Quarantined()
	sum.Quarantined = len(q)
	if len(q) != 1 {
		t.Fatalf("quarantine log = %+v, want exactly the extension handler", q)
	}
	sum.QuarantineAtFaults = q[0].Faults
	if want := int64(metrics.Value(m.Dispatcher, "dispatch_quarantine_fault_threshold")); q[0].Faults != want {
		t.Errorf("quarantined at %d faults, want configured threshold %d", q[0].Faults, want)
	}
	if q[0].Owner.Name != "chaos-ext" {
		t.Errorf("quarantined owner = %q", q[0].Owner.Name)
	}
	if n := m.Dispatcher.HandlerCount("Chaos.E"); n != 1 {
		t.Errorf("HandlerCount = %d after quarantine, want 1 (primary preserved)", n)
	}
	// The event still answers: the primary is the fallback.
	if got := m.Dispatcher.Raise("Chaos.E", nil); got != "primary" {
		t.Errorf("post-quarantine raise = %v", got)
	}
	inj.DisarmAll()
	sum.TotalInjected += inj.Fired()
}

// chaosNetstack injects packet drops at "net.rx" and fragment loss at
// "net.ip.reassemble", then proves the partial reassembly buffers the lost
// fragments leave behind are evicted by the TTL sweep — nothing leaks.
func chaosNetstack(t *testing.T, seed uint64, sum *chaosSummary) {
	t.Helper()
	m, err := NewMachine("chaos-net", Config{IP: netstack.Addr(10, 7, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	m.AddNIC(sal.LanceModel) // unconnected: inject-only
	inj := m.EnableFaultInjection(seed)
	inj.Arm(
		faultinject.Rule{Site: "net.rx", Kind: faultinject.KindDrop, Probability: 0.3, MaxFires: 30},
		// 9 (odd) fragment losses cannot pair up across two-fragment
		// datagrams, so at least one partial buffer is guaranteed.
		faultinject.Rule{Site: "net.ip.reassemble", Kind: faultinject.KindDrop, Probability: 0.5, MaxFires: 9},
	)
	sink, err := m.Stack.UDP().Sink(9, netstack.InKernelDelivery)
	if err != nil {
		t.Fatal(err)
	}
	fragSink, err := m.Stack.UDP().Sink(10, netstack.InKernelDelivery)
	if err != nil {
		t.Fatal(err)
	}
	src := netstack.Addr(10, 7, 0, 2)
	udpPkt := func(port uint16) *netstack.Packet {
		return &netstack.Packet{
			Src: src, Dst: m.Stack.IP, Proto: netstack.ProtoUDP,
			SrcPort: 5000, DstPort: port, Payload: make([]byte, 64), TTL: 32,
		}
	}
	// RXDropSchedule fingerprints WHERE in the stream the drops landed,
	// not just how many: the replay test needs the schedule identical, the
	// different-seed test needs it to move.
	const plain = 300
	for i := 0; i < plain; i++ {
		if !m.Stack.InjectRX(0, udpPkt(9)) {
			t.Fatal("rx queue full")
		}
		m.Run()
		sum.RXDropSchedule = sum.RXDropSchedule*31 + uint64(inj.FiredAt("net.rx"))
	}
	sum.RXFired = inj.FiredAt("net.rx")
	if sum.RXFired != 30 {
		t.Errorf("net.rx fired %d, want the full 30", sum.RXFired)
	}
	sum.SinkPackets = sink.Packets()
	if sum.SinkPackets != plain-30 {
		t.Errorf("sink got %d datagrams, want %d minus the 30 injected drops", sum.SinkPackets, plain)
	}

	// Two-fragment datagrams; injected reassembly losses leave partials.
	const datagrams = 30
	sendFrags := func(idBase uint32) {
		for i := 0; i < datagrams; i++ {
			for _, half := range []struct {
				off  int
				more bool
			}{{0, true}, {300, false}} {
				p := udpPkt(10)
				p.Payload = make([]byte, 300)
				p.FragID = idBase + uint32(i)
				p.FragOffset = half.off
				p.MoreFrags = half.more
				if !m.Stack.InjectRX(0, p) {
					t.Fatal("rx queue full")
				}
				m.Run()
			}
		}
	}
	sendFrags(1)
	sum.ReasmFired = inj.FiredAt("net.ip.reassemble")
	if sum.ReasmFired != 9 {
		t.Errorf("net.ip.reassemble fired %d, want the full 9", sum.ReasmFired)
	}
	if metrics.Value(m.Stack, "net_reassembly_pending") == 0 {
		t.Error("9 one-sided fragment losses left no partial buffer (expected at least one)")
	}
	// Crash-only cleanup: age the partials past the TTL, then let fresh
	// traffic sweep them. 30 consecutive FragIDs visit every shard.
	m.Clock.Advance(netstack.ReasmTTL + sim.Millisecond)
	sendFrags(1000)
	pending, evicted := int(metrics.Value(m.Stack, "net_reassembly_pending")), int64(metrics.Value(m.Stack, "net_reassembly_evicted"))
	sum.ReasmPending, sum.ReasmEvicted = pending, evicted
	if pending != 0 {
		t.Errorf("%d reassembly buffers still pending after TTL sweep, want 0", pending)
	}
	if evicted == 0 {
		t.Error("no partial buffers evicted, but fragment losses were injected")
	}
	sum.FragDelivered = fragSink.Packets()
	inj.DisarmAll()
	sum.TotalInjected += inj.Fired()
}

// chaosPager injects backing-store failures into the demand pager: the
// faulting access is denied, the process retries, and once the rule
// exhausts every page comes in — failures equal injections exactly.
func chaosPager(t *testing.T, seed uint64, sum *chaosSummary) {
	t.Helper()
	m, err := NewMachine("chaos-pager", Config{})
	if err != nil {
		t.Fatal(err)
	}
	inj := m.EnableFaultInjection(seed)
	inj.Arm(faultinject.Rule{
		Site: "vm.pager.fault", Kind: faultinject.KindError, After: 2, MaxFires: 10,
	})
	failures := 0
	srv := m.NewUnixServer()
	srv.Spawn("chaos-proc", func(p *unixsrv.Process) {
		asid := m.VM.VirtSvc.NewASID()
		heap, err := m.VM.VirtSvc.Allocate(asid, 16*sal.PageSize, vm.AnyAttrib)
		if err != nil {
			t.Errorf("virt alloc: %v", err)
			return
		}
		if _, err := vm.NewPager(m.VM, m.Disk, p.Space.Ctx, heap,
			sal.ProtRead|sal.ProtWrite, 4, 5000, domain.Identity{Name: "chaos-pager"}); err != nil {
			t.Errorf("pager: %v", err)
			return
		}
		for sweep := 0; sweep < 2; sweep++ {
			for i := 0; i < 16; i++ {
				addr := heap.Start() + uint64(i)*sal.PageSize
				for try := 0; ; try++ {
					if err := p.Touch(addr, true); err == nil {
						break
					}
					failures++
					if try > 20 {
						t.Errorf("page %d never came in: %v", i, err)
						return
					}
				}
			}
		}
	})
	srv.Run()
	sum.PagerFired = inj.FiredAt("vm.pager.fault")
	sum.PagerFailures = failures
	if sum.PagerFired != 10 {
		t.Errorf("vm.pager.fault fired %d, want the full 10", sum.PagerFired)
	}
	if int64(failures) != sum.PagerFired {
		t.Errorf("%d touch failures != %d injected pager faults", failures, sum.PagerFired)
	}
	inj.DisarmAll()
	sum.TotalInjected += inj.Fired()
}

// chaosStrands injects panics at strand entry: each kills its own strand
// only; the scheduler loop and every other strand keep running.
func chaosStrands(t *testing.T, seed uint64, sum *chaosSummary) {
	t.Helper()
	m, err := NewMachine("chaos-sched", Config{})
	if err != nil {
		t.Fatal(err)
	}
	inj := m.EnableFaultInjection(seed)
	inj.Arm(faultinject.Rule{Site: "sched.strand", Kind: faultinject.KindPanic, MaxFires: 5})
	const strands = 12
	var ran atomic.Int64
	for i := 0; i < strands; i++ {
		s := m.Sched.NewStrand(fmt.Sprintf("victim-%d", i), 1, func(*strand.Strand) {
			ran.Add(1)
		})
		m.Sched.Start(s)
	}
	m.Sched.Run()
	sum.StrandFired = inj.FiredAt("sched.strand")
	sum.StrandFaults = m.Sched.StrandFaults()
	sum.StrandBodiesRan = ran.Load()
	if sum.StrandFired != 5 {
		t.Errorf("sched.strand fired %d, want the full 5", sum.StrandFired)
	}
	if sum.StrandFaults != 5 {
		t.Errorf("StrandFaults = %d, want 5 (each injected panic contained)", sum.StrandFaults)
	}
	if sum.StrandBodiesRan != strands-5 {
		t.Errorf("%d strand bodies ran, want %d (survivors unaffected)", sum.StrandBodiesRan, strands-5)
	}
	inj.DisarmAll()
	sum.TotalInjected += inj.Fired()
}

// chaosStolenStrands points the "sched.strand" site at a 4-CPU machine
// whose strands are all homed on CPU 0, so the injected panics land on
// strands that the idle CPUs have just stolen: a strand panicking
// mid-migration dies alone on the thief CPU, and that CPU keeps scheduling
// (steals continue, survivors complete their full scripts).
func chaosStolenStrands(t *testing.T, seed uint64, sum *chaosSummary) {
	t.Helper()
	m, err := NewMachine("chaos-mcpu", Config{CPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	inj := m.EnableFaultInjection(seed)
	inj.Arm(faultinject.Rule{Site: "sched.strand", Kind: faultinject.KindPanic, MaxFires: 6})
	const strands = 20
	ranFlag := make([]bool, strands)
	completed := make([]bool, strands)
	stolen := make(map[string]bool)
	m.Sched.SetObserver(func(ev strand.SchedEvent) {
		if ev.Kind == "steal" {
			stolen[ev.Strand] = true
		}
	})
	for i := 0; i < strands; i++ {
		i := i
		s := m.Sched.NewStrandOn(fmt.Sprintf("mc-%d", i), 1, 0, func(s *strand.Strand) {
			ranFlag[i] = true
			for k := 0; k < 4; k++ {
				s.Exec(3 * sim.Microsecond)
				s.Yield()
			}
			completed[i] = true
		})
		m.Sched.Start(s)
	}
	m.Sched.Run()
	sum.MCPUStrandFired = inj.FiredAt("sched.strand")
	sum.MCPUSteals = m.Sched.Steals()
	if sum.MCPUStrandFired != 6 {
		t.Errorf("sched.strand fired %d on the 4-CPU machine, want the full 6", sum.MCPUStrandFired)
	}
	if got := m.Sched.StrandFaults(); got != sum.MCPUStrandFired {
		t.Errorf("StrandFaults = %d, want %d (each injected panic contained)", got, sum.MCPUStrandFired)
	}
	if sum.MCPUSteals == 0 {
		t.Error("no steals on the 4-CPU chaos machine: the site never saw a migrated strand")
	}
	var ran, done int64
	for i := 0; i < strands; i++ {
		if ranFlag[i] {
			ran++
		}
		if completed[i] {
			done++
		}
		// The entry-site panic fires before the body, so a faulted strand
		// never sets its flag; count the ones that were also stolen.
		if !ranFlag[i] && stolen[fmt.Sprintf("mc-%d", i)] {
			sum.MCPUStolenFaults++
		}
	}
	sum.MCPUBodiesRan = ran
	if ran != strands-sum.MCPUStrandFired {
		t.Errorf("%d strand bodies ran, want %d (survivors unaffected)", ran, strands-sum.MCPUStrandFired)
	}
	if done != ran {
		t.Errorf("%d survivors completed their scripts, want all %d", done, ran)
	}
	if sum.MCPUStolenFaults == 0 {
		t.Error("no injected panic landed on a stolen strand — the chaos never exercised death mid-migration")
	}
	busy := 0
	for cpu := 0; cpu < m.Sched.NumCPUs(); cpu++ {
		l := fmt.Sprintf("{cpu=\"%d\"}", cpu)
		if metrics.Value(m.Sched, "strand_switches"+l) > 0 {
			busy++
		}
		if ready := metrics.Value(m.Sched, "strand_ready"+l); ready != 0 {
			t.Errorf("cpu%d still queues %v strands after chaos", cpu, ready)
		}
	}
	if busy < 2 {
		t.Errorf("only %d CPUs dispatched; thief CPUs must keep scheduling after contained panics", busy)
	}
	inj.DisarmAll()
	sum.TotalInjected += inj.Fired()
}

// chaosTCP injects segment loss at the server's "net.tcp.deliver" site
// mid-transfer: retransmission recovers every byte, in order.
func chaosTCP(t *testing.T, seed uint64, sum *chaosSummary) {
	t.Helper()
	srv, err := NewMachine("chaos-tcp-srv", Config{IP: netstack.Addr(10, 8, 0, 2)})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewMachine("chaos-tcp-cli", Config{IP: netstack.Addr(10, 8, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := sal.Connect(srv.AddNIC(sal.LanceModel), cli.AddNIC(sal.LanceModel)); err != nil {
		t.Fatal(err)
	}
	cluster := sim.NewCluster(srv.Engine, cli.Engine)
	inj := srv.EnableFaultInjection(seed)
	inj.Arm(faultinject.Rule{Site: "net.tcp.deliver", Kind: faultinject.KindDrop, After: 3, MaxFires: 6})
	const total = 32 * 1024
	var received []byte
	if err := srv.Stack.TCP().Listen(80, nil, func(c *netstack.Conn) {
		c.OnData = func(_ *netstack.Conn, d []byte) { received = append(received, d...) }
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := cli.Stack.TCP().Connect(srv.Stack.IP, 80, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	conn.OnConnect = func(c *netstack.Conn) { _ = c.Send(payload) }
	if !cluster.RunUntil(func() bool { return len(received) >= total }, sim.Time(10*60*sim.Second)) {
		t.Fatalf("transfer stalled at %d/%d bytes under injected segment loss", len(received), total)
	}
	for i := range received {
		if received[i] != byte(i*13) {
			t.Fatalf("corruption at byte %d", i)
		}
	}
	sum.TCPFired = inj.FiredAt("net.tcp.deliver")
	sum.TCPDelivered = len(received)
	if sum.TCPFired != 6 {
		t.Errorf("net.tcp.deliver fired %d, want the full 6", sum.TCPFired)
	}
	if conn.Retransmits() == 0 {
		t.Error("segments dropped but no retransmissions recorded")
	}
	inj.DisarmAll()
	sum.TotalInjected += inj.Fired()
}

// chaosDial injects faults at the client's "net.dial" connect site, both
// ways it can fire: KindError fails the dial synchronously before any
// connection state exists, and KindDrop loses the initial SYN so the
// handshake only completes late, through SYN retransmission.
func chaosDial(t *testing.T, seed uint64, sum *chaosSummary) {
	t.Helper()
	srv, err := NewMachine("chaos-dial-srv", Config{IP: netstack.Addr(10, 9, 0, 2)})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewMachine("chaos-dial-cli", Config{IP: netstack.Addr(10, 9, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := sal.Connect(srv.AddNIC(sal.LanceModel), cli.AddNIC(sal.LanceModel)); err != nil {
		t.Fatal(err)
	}
	cluster := sim.NewCluster(srv.Engine, cli.Engine)
	if err := srv.Stack.TCP().Listen(80, nil, func(*netstack.Conn) {}); err != nil {
		t.Fatal(err)
	}
	inj := cli.EnableFaultInjection(seed)

	// Phase 1: injected connect errors surface synchronously.
	inj.Arm(faultinject.Rule{Site: "net.dial", Kind: faultinject.KindError, MaxFires: 4})
	for i := 0; i < 4; i++ {
		if _, err := cli.Stack.TCP().Connect(srv.Stack.IP, 80, nil); err == nil {
			t.Errorf("dial %d succeeded despite an armed net.dial error rule", i)
		} else {
			sum.DialErrors++
		}
	}
	inj.DisarmAll()
	if got := inj.FiredAt("net.dial"); got != 4 {
		t.Errorf("net.dial fired %d in the error phase, want the full 4", got)
	}

	// Phase 2: dropped SYNs. The dial itself succeeds (the conn exists in
	// SYN_SENT) and the handshake completes late via the retransmission
	// machinery.
	inj.Arm(faultinject.Rule{Site: "net.dial", Kind: faultinject.KindDrop, MaxFires: 3})
	for i := 0; i < 3; i++ {
		conn, err := cli.Stack.TCP().Connect(srv.Stack.IP, 80, nil)
		if err != nil {
			t.Fatalf("drop-phase dial %d: %v", i, err)
		}
		established := false
		conn.OnConnect = func(*netstack.Conn) { established = true }
		if !cluster.RunUntil(func() bool { return established }, sim.Time(60*sim.Second)) {
			t.Fatalf("drop-phase dial %d never established (SYN retx broken)", i)
		}
		sum.DialLateConnects++
		sum.DialRetransmits += int64(conn.Retransmits())
		_ = conn.Close()
	}
	cluster.Run(0)
	// FiredAt is cumulative across both phases: 4 errors + 3 drops.
	sum.DialFired = inj.FiredAt("net.dial")
	if sum.DialFired != 7 {
		t.Errorf("net.dial fired %d across both phases, want the full 7", sum.DialFired)
	}
	if sum.DialRetransmits < 3 {
		t.Errorf("dropped SYNs but only %d retransmissions across 3 dials", sum.DialRetransmits)
	}
	inj.DisarmAll()
	sum.TotalInjected += inj.Fired() - 4 // phase 1's fires already counted
}

// chaosBCode injects panics into a verified bytecode filter's action: the
// program passed the verifier, so the bytecode itself cannot fault, but
// the handler wrapping it can — the "bcode.run" site models exactly that.
// Each contained fault fails open (the packet is delivered, not lost), the
// filter is quarantined at the boot policy's threshold, and the receive
// path never stalls.
func chaosBCode(t *testing.T, seed uint64, sum *chaosSummary) {
	t.Helper()
	m, err := NewMachine("chaos-bcode", Config{IP: netstack.Addr(10, 8, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	m.AddNIC(sal.LanceModel) // unconnected: inject-only
	inj := m.EnableFaultInjection(seed)
	inj.Arm(faultinject.Rule{
		Site: "bcode.run", Kind: faultinject.KindPanic,
		Probability: 0.5, MaxFires: 8,
	})
	// A verified-but-hostile filter, loaded from wire bytes through the
	// untrusted-user path: drop UDP to port 9 (the sink).
	filt, err := m.LoadFilter("chaos-filter", bcode.New(
		bcode.LdCtx(3, netstack.CtxProto),
		bcode.JneImm(3, int32(netstack.ProtoUDP), 3),
		bcode.LdCtx(4, netstack.CtxDstPort),
		bcode.JneImm(4, 9, 1),
		bcode.Ja(2),
		bcode.MovImm(0, 0),
		bcode.Exit(),
		bcode.MovImm(0, 1),
		bcode.Exit(),
	).Encode())
	if err != nil {
		t.Fatal(err)
	}
	sink, err := m.Stack.UDP().Sink(9, netstack.InKernelDelivery)
	if err != nil {
		t.Fatal(err)
	}
	const packets = 40
	for i := 0; i < packets; i++ {
		if !m.Stack.InjectRX(0, &netstack.Packet{
			Src: netstack.Addr(10, 8, 0, 2), Dst: m.Stack.IP, Proto: netstack.ProtoUDP,
			SrcPort: 5000, DstPort: 9, Payload: make([]byte, 64), TTL: 32,
		}) {
			t.Fatal("rx queue full")
		}
		m.Run()
	}
	sum.BCodeFired = inj.FiredAt("bcode.run")
	if sum.BCodeFired != 8 {
		t.Errorf("bcode.run fired %d, want the full 8", sum.BCodeFired)
	}
	if !filt.Quarantined() {
		t.Error("hostile filter not quarantined at the boot policy's threshold")
	}
	sum.BCodeQuarantined = len(m.Dispatcher.Quarantined())
	_, matched := filt.Stats()
	sum.BCodeDropped = matched
	sum.BCodeDelivered = sink.Packets()
	// Conservation: every packet was either dropped by a successful filter
	// run or delivered (faulting runs fail open, post-quarantine packets
	// flow freely). The RX path lost nothing.
	if sum.BCodeDelivered+sum.BCodeDropped != packets {
		t.Errorf("delivered %d + dropped %d != %d injected packets",
			sum.BCodeDelivered, sum.BCodeDropped, packets)
	}
	// The 8 faults failed open and everything after the unlink flows, so
	// deliveries must at least cover the faulted packets.
	if sum.BCodeDelivered < 8 {
		t.Errorf("delivered = %d, want >= 8 (faults fail open)", sum.BCodeDelivered)
	}
	inj.DisarmAll()
	sum.TotalInjected += inj.Fired()
}

func runChaos(t *testing.T, seed uint64) chaosSummary {
	var sum chaosSummary
	chaosDispatch(t, seed, &sum)
	chaosNetstack(t, seed+1, &sum)
	chaosPager(t, seed+2, &sum)
	chaosStrands(t, seed+3, &sum)
	chaosStolenStrands(t, seed+5, &sum)
	chaosTCP(t, seed+4, &sum)
	chaosDial(t, seed+6, &sum)
	chaosBCode(t, seed+7, &sum)
	return sum
}

// TestChaosTortureSeeded is the acceptance run: >= 100 injected faults
// across every wired site, all survived, all counted exactly once — then
// the whole torture replayed from the same seed with an identical summary.
func TestChaosTortureSeeded(t *testing.T) {
	first := runChaos(t, chaosSeed)
	if first.TotalInjected < 100 {
		t.Errorf("only %d faults injected across the torture, want >= 100", first.TotalInjected)
	}
	replay := runChaos(t, chaosSeed)
	if first.render() != replay.render() {
		t.Errorf("replay diverged:\n first: %s\nreplay: %s", first.render(), replay.render())
	}
}

// TestChaosDifferentSeedDiverges guards against the harness silently
// ignoring its seed: a different seed must land the probabilistic faults on
// a different schedule, visible in what the survivors observed.
func TestChaosDifferentSeedDiverges(t *testing.T) {
	a := runChaos(t, chaosSeed)
	b := runChaos(t, chaosSeed+100)
	if a.render() == b.render() {
		t.Error("two different seeds produced byte-identical summaries (suspicious)")
	}
}
