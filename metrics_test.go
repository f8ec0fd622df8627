package spin_test

import (
	"bytes"
	"io"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"spin"
	"spin/internal/bcode"
	"spin/internal/dispatch"
	"spin/internal/faultinject"
	"spin/internal/lb"
	"spin/internal/metrics"
	"spin/internal/netstack"
	"spin/internal/sal"
	"spin/internal/vnet"
)

// sampleLine is one line of the Prometheus text format as metrics.Write
// renders it: a name, an optional label set, one space, a value.
var sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)` +
	`(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*")*\})?` +
	` (-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?|[+-]Inf|NaN)$`)

// exposedNames is every metric name the demo machine's /debug/metrics page
// carries. A counter renamed, added or dropped changes this list in the
// same diff. It holds every field the per-subsystem reports showed before
// they were folded into the one surface.
var exposedNames = []string{
	"bcode_hits", "bcode_insns", "bcode_quarantined", "bcode_runs",
	"dispatch_aborts", "dispatch_faults", "dispatch_faults_total", "dispatch_quarantine_fault_threshold",
	"dispatch_quarantine_overrun_budget", "dispatch_quarantined", "dispatch_raises",
	"dns_resolver_cache_hits", "dns_resolver_failures", "dns_resolver_lookups", "dns_resolver_negative_hits",
	"dns_resolver_retries", "dns_resolver_sent", "dns_resolver_timeouts",
	"dns_server_answered", "dns_server_malformed", "dns_server_nodata", "dns_server_nxdomain", "dns_server_queries",
	"faultinject_fired_total", "faultinject_fires", "faultinject_hits", "faultinject_seed",
	"lb_backend_breaker", "lb_backend_ejections", "lb_backend_failures", "lb_backend_picks",
	"lb_backend_probe_failures", "lb_backend_probes", "lb_backend_successes", "lb_backends",
	"lb_client_attempts", "lb_client_budget_denied", "lb_client_budget_spent", "lb_client_budget_tokens",
	"lb_client_failovers", "lb_client_requests", "lb_client_retries", "lb_ejections", "lb_ring_members",
	"net_packets_live", "net_reassembly_evicted", "net_reassembly_pending", "net_rx_packets", "net_rx_panics",
	"net_rx_queue_accepted", "net_rx_queue_dropped",
	"net_tcp_accepted", "net_tcp_conns", "net_tcp_dsacks_received", "net_tcp_fast_recoveries", "net_tcp_half_open",
	"net_tcp_half_open_evicted", "net_tcp_rack_marked_lost", "net_tcp_resets", "net_tcp_rtos", "net_tcp_syn_rtos",
	"net_tcp_timed_out", "net_tcp_tlp_probes", "net_tx_packets",
	"sal_mmu_faults", "sal_phys_frames", "sal_phys_frames_in_use", "sal_tlb_hits", "sal_tlb_misses",
	"strand_clock_ns", "strand_faults", "strand_migrations", "strand_ready", "strand_steals", "strand_switches",
	"trace_latency_ns_bucket", "trace_latency_ns_count", "trace_latency_ns_max", "trace_latency_ns_sum",
}

// TestMetricsExposition boots the demo star with every metrics source
// attached (XDP, a wire-loaded filter, a steal policy, the tracer, the
// injector, the DNS server and resolver, a balancer and its dialer), runs
// some traffic, and checks the page spin-httpd serves as /debug/metrics:
// every line is a text-format sample, no sample repeats, the page fits one
// UDP datagram (a netdbg reply), and the names are exposedNames.
func TestMetricsExposition(t *testing.T) {
	in, err := vnet.DemoStar("primary", "primary", "svc",
		vnet.DemoPeer{Name: "client", IP: netstack.Addr(10, 0, 0, 1)},
		vnet.DemoPeer{Name: "replica", IP: netstack.Addr(10, 0, 0, 3)})
	if err != nil {
		t.Fatal(err)
	}
	m := in.Machine("primary")
	discard := bcode.New(
		bcode.LdCtx(3, netstack.CtxDstPort),
		bcode.JneImm(3, 9, 2),
		bcode.MovImm(0, 1),
		bcode.Exit(),
		bcode.MovImm(0, 0),
		bcode.Exit(),
	)
	if _, err := m.LoadFilter("udp9-discard", discard.Encode()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Sched.SetStealPolicy("steal-all", bcode.New(bcode.MovImm(0, 0), bcode.Exit())); err != nil {
		t.Fatal(err)
	}
	m.EnableTracing(64)
	m.EnableFaultInjection(1).Arm(faultinject.Rule{Site: "net.rx", Kind: faultinject.KindDelay, MaxFires: 1})
	bal, err := in.Balancer("primary", lb.Config{}, "replica")
	if err != nil {
		t.Fatal(err)
	}
	rd, err := in.ResilientDialer("primary", bal, lb.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := netstack.NewHTTPServer(m.Stack, 80, netstack.InKernelDelivery, netstack.ContentMap{"/": []byte("up")}); err != nil {
		t.Fatal(err)
	}
	vnet.RunDemoStrands(m)
	done := false
	if err := netstack.HTTPGet(in.Machine("client").Stack, m.Stack.IP, 80, "/", netstack.InKernelDelivery,
		func(string, []byte) { done = true }); err != nil {
		t.Fatal(err)
	}
	if !in.RunUntil(func() bool { return done }, 0) {
		t.Fatal("request hung")
	}

	var page bytes.Buffer
	if err := metrics.Write(&page, "", m, bal, rd); err != nil {
		t.Fatal(err)
	}
	if page.Len() > 65507 {
		t.Errorf("page is %d bytes, more than one UDP datagram carries", page.Len())
	}
	seen := map[string]bool{}
	var names []string
	for _, line := range strings.Split(strings.TrimSuffix(page.String(), "\n"), "\n") {
		match := sampleLine.FindStringSubmatch(line)
		if match == nil {
			t.Errorf("not a text-format sample: %q", line)
			continue
		}
		if series := match[1] + match[2]; seen[series] {
			t.Errorf("sample %s repeats", series)
		} else {
			seen[series] = true
		}
		if !slices.Contains(names, match[1]) {
			names = append(names, match[1])
		}
	}
	if slices.Sort(names); !slices.Equal(names, exposedNames) {
		t.Errorf("metric names changed:\n got  %q\n want %q", names, exposedNames)
	}
}

// TestMetricsConcurrentRead renders a machine's metrics from another
// goroutine while the machine's owner, a sockets Driver's loop, raises
// events, injects packets and steps the engine that delivers them. The
// reader goes through Driver.Run, the one way onto a running machine, so
// under -race every read is ordered with the writers; each page it reads is
// exact as of its moment, and the counts read afterwards are exact.
func TestMetricsConcurrentRead(t *testing.T) {
	m, err := spin.NewMachine("observed", spin.Config{IP: netstack.Addr(10, 0, 0, 1), CPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	m.AddNIC(sal.LanceModel)
	m.EnableTracing(64)
	m.EnableFaultInjection(1)
	if _, err := m.Stack.AttachXDP("pass", bcode.New(bcode.MovImm(0, 0), bcode.Exit())); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Sched.SetStealPolicy("steal-all", bcode.New(bcode.MovImm(0, 0), bcode.Exit())); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Stack.UDP().Sink(9, netstack.InKernelDelivery); err != nil {
		t.Fatal(err)
	}
	if err := m.Dispatcher.Define("Observed.Event", dispatch.DefineOptions{Primary: func(_, _ any) any { return nil }}); err != nil {
		t.Fatal(err)
	}
	drv := netstack.NewDriver(m.Engine)
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			var raises, accepted, runs float64
			drv.Run(func() {
				err = metrics.Write(io.Discard, "", m)
				raises = metrics.Value(m, `dispatch_raises{event="Observed.Event"}`)
				accepted = metrics.Value(m, "net_rx_queue_accepted")
				runs = metrics.Value(m, `bcode_runs{program="pass",point="xdp"}`)
			})
			// One packet rides with each raise, and XDP has run on every
			// packet accepted and drained.
			if err != nil || accepted != raises || runs > accepted {
				t.Errorf("page: err %v, %v raises, %v accepted, %v XDP runs", err, raises, accepted, runs)
				return
			}
		}
	}()
	const writers, per = 2, 2000
	// Stepping every 64 packets keeps the queue from filling, so every
	// injection is accepted. One raise rides with each injection.
	const injected = writers * per
	pkt := &netstack.Packet{Src: netstack.Addr(10, 0, 0, 2), Dst: m.Stack.IP, Proto: netstack.ProtoUDP,
		SrcPort: 1, DstPort: 9, Payload: make([]byte, 16), TTL: 32}
	for i := 0; i < injected; i += 64 {
		drv.Run(func() {
			for j := i; j < min(i+64, injected); j++ {
				m.Dispatcher.Raise("Observed.Event", nil)
				m.Stack.InjectRX(0, pkt)
			}
		})
		drv.Drain()
	}
	close(stop)
	reader.Wait()

	var raises, accepted, dropped, runs float64
	drv.Run(func() {
		raises = metrics.Value(m, `dispatch_raises{event="Observed.Event"}`)
		accepted, dropped = metrics.Value(m, "net_rx_queue_accepted"), metrics.Value(m, "net_rx_queue_dropped")
		runs = metrics.Value(m, `bcode_runs{program="pass",point="xdp"}`)
	})
	if raises != writers*per {
		t.Errorf("dispatch_raises = %v, want %d", raises, writers*per)
	}
	if accepted != injected || dropped != 0 {
		t.Errorf("accepted %v, dropped %v of %d injected", accepted, dropped, injected)
	}
	if runs != accepted {
		t.Errorf("XDP ran %v times on %v accepted packets", runs, accepted)
	}
}
