package vnet

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"

	"spin/internal/metrics"
	"spin/internal/netstack"
	"spin/internal/sim"
)

// namedStar builds the canonical named-service topology: web server,
// client and nameserver around one switch, with web.spin.test serving
// a page over the in-kernel HTTP extension.
func namedStar(seed uint64) (*Internet, error) {
	edge := LinkModel{Latency: 200 * sim.Microsecond}
	in, err := NewBuilder(seed).
		Machine("web", 0).
		Machine("client", 0).
		Machine("ns", 0).
		Switch("s0").
		Link("web", "s0", edge).
		Link("client", "s0", edge).
		Link("ns", "s0", edge).
		Build()
	if err != nil {
		return nil, err
	}
	if err := in.EnableDNS("ns"); err != nil {
		return nil, err
	}
	if _, err := netstack.NewHTTPServer(in.Machine("web").Stack, 80, netstack.InKernelDelivery,
		netstack.ContentMap{"/": []byte("extensibility, safety and performance")}); err != nil {
		return nil, err
	}
	return in, nil
}

// fetchByName runs the acceptance scenario: an unmodified net/http client
// resolves web.spin.test through the topology's DNS and fetches the page.
// net/http closes the connection from a goroutine of its own once the body
// is read; fetchByName returns only after that Close, so whatever runs the
// simulation next finds the FIN already sent, at the same virtual time in
// every replay.
func fetchByName(in *Internet) (string, error) {
	dialer, err := in.Dialer("client")
	if err != nil {
		return "", err
	}
	closed := make(chan struct{})
	httpc := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return &signalClose{Conn: c, closed: closed}, nil
		},
		DisableKeepAlives: true,
	}}
	resp, err := httpc.Get("http://web.spin.test/")
	if err != nil {
		return "", err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	<-closed
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", errors.New("status " + resp.Status)
	}
	return string(body), nil
}

// signalClose closes its channel once the connection has been closed.
type signalClose struct {
	net.Conn
	once   sync.Once
	closed chan struct{}
}

func (c *signalClose) Close() error {
	err := c.Conn.Close()
	c.once.Do(func() { close(c.closed) })
	return err
}

// End-to-end named service: resolve + dial + HTTP over the 3-machine star,
// by plain Go stdlib client code.
func TestNamedServiceHTTP(t *testing.T) {
	in, err := namedStar(42)
	if err != nil {
		t.Fatal(err)
	}
	body, err := fetchByName(in)
	if err != nil {
		t.Fatal(err)
	}
	if body != "extensibility, safety and performance" {
		t.Fatalf("body = %q", body)
	}
	// The client really resolved: one DNS query hit the ns machine.
	ns, client := in.Machine("ns"), in.Machine("client")
	if q, a := metrics.Value(ns, "dns_server_queries"), metrics.Value(ns, "dns_server_answered"); q != 1 || a != 1 {
		t.Errorf("ns DNS served %v queries and answered %v, want 1 answered query", q, a)
	}
	if l, sent := metrics.Value(client, "dns_resolver_lookups"), metrics.Value(client, "dns_resolver_sent"); l != 1 || sent != 1 {
		t.Errorf("client resolver: %v lookups, %v sent; want 1 and 1", l, sent)
	}
	// Everything drains: no connections left on either end.
	in.Driver().Drain()
	if got := in.Machine("client").Stack.TCP().Conns() + in.Machine("web").Stack.TCP().Conns(); got != 0 {
		t.Errorf("connections left after fetch: %d", got)
	}
}

// The acceptance bar for determinism: the same seed replays the whole
// resolve-then-fetch byte-identically — every link digest, and therefore
// the topology fingerprint, matches across runs.
func TestNamedServiceReplayDeterministic(t *testing.T) {
	fp, err := CheckReplay(3, func() (*Internet, error) { return namedStar(7) },
		func(in *Internet) error {
			body, err := fetchByName(in)
			if err != nil {
				return err
			}
			if body == "" {
				return errors.New("empty body")
			}
			in.Driver().Drain()
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if fp == 0 {
		t.Error("zero fingerprint — no traffic digested")
	}
}

// Aliases repoint: AddName moves a service between machines and the next
// (cache-expired) resolve follows it.
func TestAddNameRepoints(t *testing.T) {
	in, err := namedStar(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.AddName("www", "web"); err != nil {
		t.Fatal(err)
	}
	client := in.Machine("client")
	resolve := func(name string) (netstack.IPAddr, error) {
		var ip netstack.IPAddr
		var rerr error
		done := false
		client.Resolver.LookupA(name, func(a []netstack.IPAddr, e error) {
			if e == nil {
				ip = a[0]
			}
			rerr, done = e, true
		})
		if !in.RunUntil(func() bool { return done }, 0) {
			return 0, errors.New("lookup hung")
		}
		return ip, rerr
	}
	ip, err := resolve("www.spin.test")
	if err != nil || ip != in.IP("web") {
		t.Fatalf("www -> %v, %v; want %v", ip, err, in.IP("web"))
	}
	in.AddName("www", "ns") // failover
	client.Resolver.FlushCache()
	ip, err = resolve("www.spin.test")
	if err != nil || ip != in.IP("ns") {
		t.Fatalf("repointed www -> %v, %v; want %v", ip, err, in.IP("ns"))
	}
	if _, err := resolve("gone.spin.test"); !errors.Is(err, netstack.ErrNameNotFound) {
		t.Errorf("absent name: %v", err)
	}
	if err := in.AddName("x", "nope"); err == nil {
		t.Error("AddName to unknown machine accepted")
	}
	// Removal: the alias stops resolving.
	in.RemoveName("www")
	client.Resolver.FlushCache()
	if _, err := resolve("www.spin.test"); !errors.Is(err, netstack.ErrNameNotFound) {
		t.Errorf("removed name still resolves: %v", err)
	}
	// Error paths: DNS is already enabled, and socket layers only exist for
	// known machines.
	if err := in.EnableDNS("web"); err == nil {
		t.Error("second EnableDNS accepted")
	}
	if _, err := in.Sockets("nope"); err == nil {
		t.Error("Sockets for unknown machine accepted")
	}
	if _, err := in.Dialer("nope"); err == nil {
		t.Error("Dialer for unknown machine accepted")
	}
}

// The foreground bugfix's acceptance scenario: a dial through a link whose
// frames are all dropped (a partitioned machine) returns ErrTimedOut in
// bounded virtual time — no infinite SYN retransmission — leaves no
// connection behind, and replays deterministically.
func TestDialPartitionedMachineTimesOut(t *testing.T) {
	build := func() (*Internet, error) {
		in, err := namedStar(11)
		if err != nil {
			return nil, err
		}
		// 100%-drop netem hook on the web spoke: the DNS still answers
		// (ns is reachable), but nothing reaches the web machine.
		in.Link("web~s0").AddHook(func(*FrameEvent) Verdict { return Drop })
		return in, nil
	}
	drive := func(in *Internet) error {
		client := in.Machine("client")
		start := client.Clock.Now()
		_, err := fetchByName(in)
		if err == nil {
			return errors.New("fetch through a partition succeeded")
		}
		if !errors.Is(err, netstack.ErrTimedOut) {
			return errors.New("err = " + err.Error() + ", want ErrTimedOut")
		}
		// Bounded virtual time: resolve (~ms) + 19.0s of capped SYN
		// backoff. Below the 30s an uncapped dial would blow past.
		if elapsed := client.Clock.Now().Sub(start); elapsed > 20*sim.Second {
			return errors.New("timed-out dial took " + elapsed.String())
		}
		in.Driver().Drain()
		if got := client.Stack.TCP().Conns(); got != 0 {
			return errors.New("connections left after timeout")
		}
		return nil
	}
	if _, err := CheckReplay(3, build, drive); err != nil {
		t.Fatal(err)
	}
}

// The demo star spin-dbg and spin-httpd share: the primary is published
// under its label at the DNS host, carries the ttl-guard XDP program, and
// has the second CPU the demo strand workload needs in order to steal.
func TestDemoStar(t *testing.T) {
	in, err := DemoStar("primary", "ns", "svc",
		DemoPeer{Name: "client", IP: netstack.Addr(10, 0, 0, 1)},
		DemoPeer{Name: "ns", IP: netstack.Addr(10, 0, 0, 3)})
	if err != nil {
		t.Fatal(err)
	}
	primary := in.Machine("primary")
	if got := in.Machines(); len(got) != 3 || got[0] != "primary" {
		t.Fatalf("machines = %v", got)
	}
	var addrs []netstack.IPAddr
	in.Machine("client").Resolver.LookupA("svc.spin.test", func(a []netstack.IPAddr, err error) {
		if err != nil {
			t.Errorf("lookup: %v", err)
		}
		addrs = a
	})
	if !in.RunUntil(func() bool { return addrs != nil }, 0) || addrs[0] != primary.Stack.IP {
		t.Fatalf("svc.spin.test resolved to %v, want %v", addrs, primary.Stack.IP)
	}
	if got := page(t, "bcode_insns", primary); got != "bcode_insns{program=\"ttl-guard\",point=\"xdp\"} 6\n" {
		t.Errorf("primary programs = %q, want the ttl-guard XDP program", got)
	}
	RunDemoStrands(primary)
	if primary.Sched.Steals() == 0 {
		t.Error("demo strand workload never stole: the strand_steals metrics would be empty")
	}
}

// page renders src's samples under prefix.
func page(t *testing.T, prefix string, src metrics.Source) string {
	t.Helper()
	var sb strings.Builder
	if err := metrics.Write(&sb, prefix, src); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}
