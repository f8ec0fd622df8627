package lb

import (
	"fmt"
	"strings"
	"testing"

	"spin/internal/dispatch"
	"spin/internal/metrics"
	"spin/internal/netstack"
	"spin/internal/sim"
)

// soloStack builds one machine with no NIC: DNS server, resolver and
// backend listener all live on the same stack, reached over IP loopback.
func soloStack(t *testing.T) (*netstack.Stack, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	disp := dispatch.New(eng, &sim.SPINProfile)
	stack, err := netstack.NewStack("solo", netstack.Addr(10, 0, 0, 1), eng, &sim.SPINProfile, disp)
	if err != nil {
		t.Fatal(err)
	}
	return stack, eng
}

// TestBalancerHealthLoopback drives the full active health-check cycle on a
// single stack: both backends probed healthy, the listener torn down (probe
// connects now meet RSTs, breakers open, ring empties), then restored (the
// half-open probe succeeds, breakers close, ring regrows).
func TestBalancerHealthLoopback(t *testing.T) {
	stack, eng := soloStack(t)
	zone := netstack.NewZone()
	// app-b is registered with an empty host below, so probes resolve the
	// bare member name itself.
	for _, n := range []string{"app-a.spin.test", "app-b"} {
		if err := zone.AddA(n, 60*sim.Second, stack.IP); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := netstack.NewDNSServer("", stack, zone.LookupA); err != nil {
		t.Fatal(err)
	}
	resolver := netstack.NewResolver(stack, netstack.ResolverConfig{
		Servers: []netstack.IPAddr{stack.IP}, Seed: 3,
	})
	listen := func() {
		if err := stack.TCP().Listen(80, netstack.InKernelDelivery, func(c *netstack.Conn) {}); err != nil {
			t.Fatal(err)
		}
	}
	listen()

	bal := NewBalancer(stack, resolver, Config{Seed: 7})
	bal.AddBackend("app-a", "app-a.spin.test")
	bal.AddBackend("app-b", "") // host defaults to the member name
	if got := bal.Host("app-a"); got != "app-a.spin.test" {
		t.Fatalf("Host(app-a) = %q", got)
	}
	if got := bal.Host("app-b"); got != "app-b" {
		t.Fatalf("Host(app-b) = %q", got)
	}
	if bal.Host("nope") != "" {
		t.Fatal("Host of unknown member should be empty")
	}
	if got := bal.Members(); len(got) != 2 {
		t.Fatalf("Members = %v, want both", got)
	}
	if name := bal.Pick(42); name != "app-a" && name != "app-b" {
		t.Fatalf("Pick = %q", name)
	}
	buf := make([]string, 2)
	if n := bal.Sequence(42, buf); n != 2 {
		t.Fatalf("Sequence = %d, want 2", n)
	}

	bal.StartHealth()
	bal.StartHealth() // idempotent
	eng.Run(sim.Time(2 * sim.Second))
	for _, name := range bal.order {
		l := fmt.Sprintf("{backend=%q}", name)
		if n := metrics.Value(bal, "lb_backend_probes"+l); n < 4 {
			t.Fatalf("%s: %v probes in 2s, want >= 4", name, n)
		}
		if n := metrics.Value(bal, "lb_backend_probe_failures"+l); n != 0 {
			t.Fatalf("%s: %v probe failures against a live listener", name, n)
		}
		if st := bal.backends[name].breaker.State(); st != BreakerClosed {
			t.Fatalf("%s: state %s, want closed", name, st)
		}
	}
	if bal.Ejections() != 0 {
		t.Fatalf("ejections = %d before any failure", bal.Ejections())
	}

	// Kill the service: probe connects meet RSTs, three consecutive
	// failures open each breaker, the ring empties.
	stack.TCP().Unlisten(80)
	eng.Run(sim.Time(4 * sim.Second))
	if bal.Ejections() < 2 {
		t.Fatalf("ejections = %d after listener teardown, want >= 2", bal.Ejections())
	}
	if got := bal.Members(); len(got) != 0 {
		t.Fatalf("Members = %v after both breakers opened", got)
	}
	if name := bal.Pick(42); name != "" {
		t.Fatalf("Pick on empty ring = %q", name)
	}
	if n := bal.Sequence(42, buf); n != 0 {
		t.Fatalf("Sequence on empty ring = %d", n)
	}
	if bal.LastEjectAt() == 0 {
		t.Fatal("LastEjectAt unset after ejection")
	}

	// Restore the service: the next half-open probe succeeds, the
	// breakers close, the ring regrows.
	listen()
	eng.Run(sim.Time(10 * sim.Second))
	if got := bal.Members(); len(got) != 2 {
		t.Fatalf("Members = %v after service restored, want both", got)
	}
	if bal.LastRejoinAt() == 0 {
		t.Fatal("LastRejoinAt unset after recovery")
	}
	if n := metrics.Value(bal, "lb_ring_members"); n != 2 {
		t.Fatalf("lb_ring_members = %v", n)
	}

	// StopHealth cancels probe and breaker timers: the queue must drain.
	bal.StopHealth()
	eng.Run(0)
	if eng.Pending() != 0 {
		t.Fatalf("%d events still queued after StopHealth", eng.Pending())
	}
}

// TestBalancerPassiveOutlier exercises the dialer-fed path with no network
// at all: reported failures open the breaker and shrink the ring, an
// explicit Eject does the same immediately, successes reset streaks.
func TestBalancerPassiveOutlier(t *testing.T) {
	stack, _ := soloStack(t)
	bal := NewBalancer(stack, nil, Config{Seed: 9})
	bal.AddBackend("a", "a.spin.test")
	bal.AddBackend("b", "b.spin.test")
	bal.AddBackend("c", "c.spin.test")

	bal.ReportFailure("a")
	bal.ReportSuccess("a") // resets the streak
	bal.ReportFailure("a")
	if len(bal.Members()) != 3 {
		t.Fatalf("Members shrank below threshold: %v", bal.Members())
	}
	bal.ReportFailure("a")
	bal.ReportFailure("a")
	if got := bal.Members(); len(got) != 2 {
		t.Fatalf("Members = %v after a's breaker opened", got)
	}
	bal.Eject("b")
	if got := bal.Members(); len(got) != 1 || got[0] != "c" {
		t.Fatalf("Members = %v after ejecting b, want [c]", got)
	}
	if bal.Ejections() != 2 {
		t.Fatalf("ejections = %d, want 2", bal.Ejections())
	}
	// Unknown names are ignored, not a panic.
	bal.ReportSuccess("nope")
	bal.ReportFailure("nope")
	bal.Eject("nope")
	if bal.Successes("a") != 1 {
		t.Fatalf("Successes(a) = %d", bal.Successes("a"))
	}
	if bal.Successes("nope") != 0 {
		t.Fatal("Successes of unknown member should be 0")
	}

	var page strings.Builder
	if err := metrics.Write(&page, "lb_", bal); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"lb_backends 3\n", "lb_ejections 2\n", "lb_ring_members 1\n",
		`lb_backend_breaker{backend="a",host="a.spin.test",state="open"} 1`,
		`lb_backend_breaker{backend="b",host="b.spin.test",state="open"} 1`,
		`lb_backend_breaker{backend="c",host="c.spin.test",state="closed"} 1`} {
		if !strings.Contains(page.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, page.String())
		}
	}
}
