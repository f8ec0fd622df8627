package lb

import (
	"errors"
	"testing"

	"spin/internal/metrics"
	"spin/internal/netstack"
	"spin/internal/sim"
)

// dialerRig is the loopback single-stack harness for ResilientDialer: DNS
// authority, resolver, listener and client share one stack, so blocking
// dials drive the engine through the socket driver with no topology.
type dialerRig struct {
	stack *netstack.Stack
	eng   *sim.Engine
	d     *netstack.Driver
	socks *netstack.Sockets
}

func newDialerRig(t *testing.T) *dialerRig {
	t.Helper()
	stack, eng := soloStack(t)
	zone := netstack.NewZone()
	for _, n := range []string{"app-a.spin.test", "app-b.spin.test"} {
		if err := zone.AddA(n, 60*sim.Second, stack.IP); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := netstack.NewDNSServer(stack, netstack.InKernelDelivery, zone.LookupA); err != nil {
		t.Fatal(err)
	}
	resolver := netstack.NewResolver(stack, netstack.ResolverConfig{
		Servers: []netstack.IPAddr{stack.IP}, Seed: 5,
	})
	d := netstack.NewDriver(eng)
	return &dialerRig{stack: stack, eng: eng, d: d, socks: netstack.NewSockets(d, stack, resolver)}
}

func (r *dialerRig) listen(t *testing.T) {
	t.Helper()
	if err := r.stack.TCP().Listen(80, netstack.InKernelDelivery, func(c *netstack.Conn) {}); err != nil {
		t.Fatal(err)
	}
}

// TestResilientDialerFailover: a healthy dial succeeds on the first
// attempt; with the service torn down, attempts fail over across backends
// with budgeted retries until both breakers open and dials fail fast with
// ErrNoBackends.
func TestResilientDialerFailover(t *testing.T) {
	r := newDialerRig(t)
	r.listen(t)
	bal := NewBalancer(r.stack, r.socks.Resolver(), Config{Seed: 7, Breaker: BreakerConfig{FailureThreshold: 2}})
	bal.AddBackend("app-a", "app-a.spin.test")
	bal.AddBackend("app-b", "app-b.spin.test")
	rd := NewResilientDialer(r.socks, bal, RetryPolicy{
		MaxAttempts:    3,
		AttemptTimeout: 200 * sim.Millisecond,
		BaseBackoff:    5 * sim.Millisecond,
		MaxBackoff:     20 * sim.Millisecond,
	}, 11)

	if _, err := rd.Dial("tcp", "no-port-here"); err == nil {
		t.Fatal("dial without port should fail")
	}
	if _, err := rd.Dial("tcp", "app.spin.test:notaport"); err == nil {
		t.Fatal("dial with bad port should fail")
	}

	c, err := rd.Dial("tcp", "app.spin.test:80")
	if err != nil {
		t.Fatalf("healthy dial: %v", err)
	}
	_ = c.Close()
	// Malformed addresses fail before the request counter.
	requests, attempts, retries, _ := rd.Stats()
	if requests != 1 || attempts != 1 || retries != 0 {
		t.Fatalf("after healthy dial: requests=%d attempts=%d retries=%d", requests, attempts, retries)
	}

	// Tear the service down: every attempt meets an RST. The next dials
	// burn budgeted retries across both backends until the breakers open,
	// then fail fast.
	r.d.Run(func() { r.stack.TCP().Unlisten(80) })
	for i := 0; i < 10; i++ {
		_, err = rd.Dial("tcp", "app.spin.test:80")
		if err == nil {
			t.Fatal("dial succeeded against a dead service")
		}
		if errors.Is(err, ErrNoBackends) {
			break
		}
	}
	if !errors.Is(err, ErrNoBackends) {
		t.Fatalf("dials never reached ErrNoBackends: %v", err)
	}
	v := func(name string) float64 { return metrics.Value(rd, name) }
	if v("lb_client_retries") < 2 || v("lb_client_failovers") < 1 || v("lb_client_budget_spent") < 2 {
		t.Fatalf("retries=%v failovers=%v spent=%v, want retry+failover activity",
			v("lb_client_retries"), v("lb_client_failovers"), v("lb_client_budget_spent"))
	}
	if n := bal.Ejections(); n < 2 {
		t.Fatalf("ejections = %d, want both backends ejected", n)
	}
	if v("lb_client_budget_tokens") >= 5 {
		t.Fatalf("budget = %.2f, want tokens spent from the starting 5", v("lb_client_budget_tokens"))
	}
}

// TestResilientDialerBudget: with a one-token cap the bucket starts at
// half a token, so the first retry is denied — the dial fails fast with
// ErrBudgetExhausted instead of piling on.
func TestResilientDialerBudget(t *testing.T) {
	r := newDialerRig(t) // no listener: every attempt fails
	bal := NewBalancer(r.stack, r.socks.Resolver(), Config{Seed: 7, Breaker: BreakerConfig{FailureThreshold: 100}})
	bal.AddBackend("app-a", "app-a.spin.test")
	bal.AddBackend("app-b", "app-b.spin.test")
	rd := NewResilientDialer(r.socks, bal, RetryPolicy{
		MaxAttempts:    3,
		AttemptTimeout: 200 * sim.Millisecond,
		BaseBackoff:    5 * sim.Millisecond,
		MaxBackoff:     20 * sim.Millisecond,
		BudgetCap:      1,
	}, 13)

	_, err := rd.Dial("tcp", "app.spin.test:80")
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	v := func(name string) float64 { return metrics.Value(rd, name) }
	if v("lb_client_budget_denied") != 1 || v("lb_client_attempts") != 1 || v("lb_client_retries") != 0 {
		t.Fatalf("denied=%v attempts=%v retries=%v, want one denied retry after one attempt",
			v("lb_client_budget_denied"), v("lb_client_attempts"), v("lb_client_retries"))
	}
}
