// Command spin-dbg demonstrates the network debugger: it boots a target
// SPIN kernel with live workload (an HTTP server taking requests) on a
// small routed topology, attaches the in-kernel debugger extension, and
// queries it from a second machine across a switch — remote kernel
// inspection without stopping the kernel, after [Redell 88].
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"spin/internal/bcode"
	"spin/internal/domain"
	"spin/internal/lb"
	"spin/internal/metrics"
	"spin/internal/netdbg"
	"spin/internal/netstack"
	"spin/internal/sim"
	"spin/internal/strand"
	"spin/internal/vnet"
)

// tour is the command sequence run when no -c is given. A reply is one
// datagram, so the tour reads the metrics a prefix at a time.
var tour = []string{"help", "events", "handlers UDP.PktArrived",
	"metrics dispatch_raises", "metrics net_", "metrics trace_latency_ns_count", "trace",
	"faults", "metrics strand_", "metrics lb_", "metrics bcode_", "metrics sal_",
	"frame 300", "topo", "metrics dns_", "resolve dbg.spin.test"}

func main() {
	var cmds multiFlag
	flag.Var(&cmds, "c", "debugger command (repeatable); default: a tour")
	flag.Parse()
	if len(cmds) == 0 {
		cmds = tour
	}
	if err := run(os.Stdout, cmds); err != nil {
		fmt.Fprintln(os.Stderr, "spin-dbg:", err)
		os.Exit(1)
	}
}

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ";") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func run(out io.Writer, cmds []string) error {
	// The debugger and its target sit on the demo star: workstation and
	// target kernel on a switch. The target doubles as the topology's DNS
	// authority, and the debugger is published as "dbg.spin.test" — the
	// workstation attaches by name, not by a hard-coded address.
	in, err := vnet.DemoStar("target-kernel", "target-kernel", "dbg",
		vnet.DemoPeer{Name: "workstation", IP: netstack.Addr(10, 0, 0, 1)},
		vnet.DemoPeer{Name: "replica-a", IP: netstack.Addr(10, 0, 0, 4)},
		vnet.DemoPeer{Name: "replica-b", IP: netstack.Addr(10, 0, 0, 5)})
	if err != nil {
		return err
	}
	target, workstation := in.Machine("target-kernel"), in.Machine("workstation")

	// Give the target a live workload so the counters mean something.
	if _, err := netstack.NewHTTPServer(target.Stack, 80, netstack.InKernelDelivery,
		netstack.ContentMap{"/": []byte("up")}); err != nil {
		return err
	}
	// Two backend replicas behind a health-checked balancer on the target:
	// its metrics show ring membership, per-backend breakers, probe counts.
	// One replica is then crash-killed so they show a real ejection (and
	// the DNS server a withdrawn name).
	for _, name := range []string{"replica-a", "replica-b"} {
		if _, err := netstack.NewHTTPServerOwned("httpd-"+name, in.Machine(name).Stack, 80,
			netstack.InKernelDelivery, netstack.ContentMap{"/": []byte("up")}); err != nil {
			return err
		}
		if err := in.WithdrawOnDestroy(name, "httpd-"+name); err != nil {
			return err
		}
	}
	bal, err := in.Balancer("target-kernel", lb.Config{}, "replica-a", "replica-b")
	if err != nil {
		return err
	}

	// Verified extensions for the bcode_ metrics, beside the star's XDP
	// program: a wire-encoded filter loaded through the untrusted-user path
	// (bytes in, verifier decides) and a steal policy on the scheduler.
	discard := bcode.New(
		bcode.LdCtx(3, netstack.CtxProto),
		bcode.JneImm(3, int32(netstack.ProtoUDP), 3),
		bcode.LdCtx(4, netstack.CtxDstPort),
		bcode.JneImm(4, 9, 1), // the discard port
		bcode.Ja(2),
		bcode.MovImm(0, 0),
		bcode.Exit(),
		bcode.MovImm(0, 1),
		bcode.Exit(),
	)
	if _, err := target.LoadFilter("udp9-discard", discard.Encode()); err != nil {
		return err
	}
	if _, err := target.Sched.SetStealPolicy("leave-one", bcode.New(
		bcode.LdCtx(3, strand.StealCtxDepth),
		bcode.JgtImm(3, 1, 2), // deep victim queues: allow the steal
		bcode.MovImm(0, 1),    // depth <= 1: veto, leave the victim its strand
		bcode.Exit(),
		bcode.MovImm(0, 0),
		bcode.Exit(),
	)); err != nil {
		return err
	}
	// Kernel-wide tracing feeds the "trace" command (the dispatch ring) and
	// the trace_latency_ns histograms.
	tracer := target.EnableTracing(256)
	if _, err := netdbg.New(target.Stack, netdbg.DefaultPort, netdbg.Target{
		Dispatcher: target.Dispatcher,
		Phys:       target.Phys,
		Metrics:    []metrics.Source{target, bal},
		Topo:       in.Describe,
		Extra: map[string]func(string) string{
			"trace": func(string) string { return tracer.Dump() },
			"resolve": func(arg string) string {
				name := strings.TrimSpace(arg)
				if name == "" {
					return "usage: resolve <name>"
				}
				if addrs, _, ok := target.Zone.LookupA(name); ok {
					return fmt.Sprintf("%s -> %v (authoritative)", name, addrs)
				}
				return fmt.Sprintf("%s: NXDOMAIN", name)
			},
		},
	}); err != nil {
		return err
	}
	// The strand_ metrics need real switches, steals and migrations.
	vnet.RunDemoStrands(target)

	// Start the balancer's health checks only now: the probe timers rearm
	// forever, so anything that waits for the machine to go fully idle
	// (Sched.Run above, Driver.Drain) must come first. Two probe rounds
	// establish both replicas healthy, then replica-b is crash-killed so
	// the lb_ metrics show a real ejection and the zone its withdrawn name.
	bal.StartHealth()
	probed := func() bool {
		for _, name := range []string{"replica-a", "replica-b"} {
			if metrics.Value(bal, fmt.Sprintf("lb_backend_probes{backend=%q}", name)) < 2 {
				return false
			}
		}
		return true
	}
	if !in.RunUntil(probed, sim.Time(10*sim.Second)) {
		return fmt.Errorf("health probes never ran")
	}
	in.Machine("replica-b").DestroyDomain(domain.Identity{Name: "httpd-replica-b"})
	if !in.RunUntil(func() bool { return bal.Ejections() > 0 }, sim.Time(30*sim.Second)) {
		return fmt.Errorf("killed replica never ejected")
	}

	// Generate some traffic first.
	for i := 0; i < 3; i++ {
		done := false
		_ = netstack.HTTPGet(workstation.Stack, target.Stack.IP, 80, "/",
			netstack.InKernelDelivery, func(string, []byte) { done = true })
		if !in.RunUntil(func() bool { return done }, 0) {
			return fmt.Errorf("warmup request hung")
		}
	}

	// Attach by name: resolve dbg.spin.test through the workstation's stub
	// resolver (a real DNS round trip over the topology) and query the
	// address it returns.
	var dbgAddr netstack.IPAddr
	var resolveErr error
	resolved := false
	workstation.Resolver.LookupA("dbg.spin.test", func(addrs []netstack.IPAddr, err error) {
		if err == nil && len(addrs) > 0 {
			dbgAddr = addrs[0]
		} else if err != nil {
			resolveErr = err
		}
		resolved = true
	})
	if !in.RunUntil(func() bool { return resolved }, 0) {
		return fmt.Errorf("DNS lookup for dbg.spin.test hung")
	}
	if resolveErr != nil {
		return fmt.Errorf("resolve dbg.spin.test: %w", resolveErr)
	}

	fmt.Fprintf(out, "attached to %s (dbg.spin.test -> %v) over the wire\n\n", target.Name, dbgAddr)
	for _, cmd := range cmds {
		var reply string
		got := false
		if err := netdbg.Query(workstation.Stack, dbgAddr, netdbg.DefaultPort, cmd,
			func(s string) { reply = s; got = true }); err != nil {
			return err
		}
		if !in.RunUntil(func() bool { return got }, 0) {
			return fmt.Errorf("query %q never answered", cmd)
		}
		fmt.Fprintf(out, "(spin-dbg) %s\n", cmd)
		for _, line := range strings.Split(reply, "\n") {
			fmt.Fprintf(out, "    %s\n", line)
		}
	}
	return nil
}
