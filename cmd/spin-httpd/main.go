// Command spin-httpd boots a three-machine routed topology — a SPIN kernel
// running the in-kernel HTTP server extension over the hybrid web cache, a
// client machine, and a DNS authority publishing the server as
// "web.spin.test" — then replays a stream of requests and prints a
// transcript with per-transaction virtual-time latency and cache
// behaviour, finishing with an unmodified net/http fetch by hostname.
//
// It is the runnable version of the paper's §5.4 web-server experiment
// ("Additional information about the SPIN project is available at
// http://www-spin.cs.washington.edu, an Alpha workstation running SPIN and
// the HTTP extension described in this paper").
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"

	"spin/internal/domain"
	"spin/internal/fs"
	"spin/internal/lb"
	"spin/internal/metrics"
	"spin/internal/netdbg"
	"spin/internal/netstack"
	"spin/internal/vnet"
)

// debugContent layers the kernel's introspection endpoints over the
// document tree, served by the same in-kernel HTTP extension that serves
// documents (paper §3.2): /debug/metrics renders every counter of the
// attached sources in the Prometheus text format (?prefix= narrows it),
// and the log pages render what is not a number.
type debugContent struct {
	docs    netstack.HTTPContent
	metrics []metrics.Source
	logs    map[string]func() string
}

func (d debugContent) Get(path string) ([]byte, bool) {
	if path == "/debug/metrics" {
		path += "?prefix="
	}
	if prefix, ok := strings.CutPrefix(path, "/debug/metrics?prefix="); ok {
		var page bytes.Buffer
		_ = metrics.Write(&page, prefix, d.metrics...) // a bytes.Buffer never fails
		return page.Bytes(), true
	}
	if log, ok := d.logs[path]; ok {
		return []byte(log()), true
	}
	return d.docs.Get(path)
}

// closeTracker counts the connections net/http's transports dialled and
// have not closed. A transport closes a connection from a goroutine of its
// own after the caller has the body; a Close landing after run returned
// would send its FIN into a simulation nothing steps again, and the packet
// would stay live on the next run's net_packets_live. open is touched only
// on the driver's loop (in Run and WaitUntil).
type closeTracker struct {
	drv  *netstack.Driver
	open int
}

type dialFunc func(ctx context.Context, network, addr string) (net.Conn, error)

func (t *closeTracker) track(dial dialFunc) dialFunc {
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := dial(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		t.drv.Run(func() { t.open++ })
		return &trackedConn{Conn: c, t: t}, nil
	}
}

// wait steps the simulation until every tracked connection has closed.
func (t *closeTracker) wait() { t.drv.WaitUntil(func() bool { return t.open == 0 }) }

type trackedConn struct {
	net.Conn
	t    *closeTracker
	once sync.Once
}

func (c *trackedConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(func() { c.t.drv.Run(func() { c.t.open-- }) })
	return err
}

func main() {
	requests := flag.Int("n", 6, "requests per document")
	flag.Parse()
	if err := run(os.Stdout, *requests); err != nil {
		fmt.Fprintln(os.Stderr, "spin-httpd:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, requests int) error {
	// The demo star: the web server, the browser, and a nameserver machine
	// publishing "web.spin.test".
	in, err := vnet.DemoStar("www-spin", "ns", "web",
		vnet.DemoPeer{Name: "browser", IP: netstack.Addr(10, 0, 0, 1)},
		vnet.DemoPeer{Name: "ns", IP: netstack.Addr(10, 0, 0, 3)},
		vnet.DemoPeer{Name: "www-spin2", IP: netstack.Addr(10, 0, 0, 4)})
	if err != nil {
		return err
	}
	server, client := in.Machine("www-spin"), in.Machine("browser")

	// A client-side balancer on the browser spreads requests across both
	// replicas (dialed by name), with passive outlier detection: dial
	// failures trip the dead replica's breaker, no active probes needed.
	// Its metrics join the primary's /debug/metrics page.
	bal, err := in.Balancer("browser", lb.Config{}, "www-spin", "www-spin2")
	if err != nil {
		return err
	}
	rd, err := in.ResilientDialer("browser", bal, lb.RetryPolicy{})
	if err != nil {
		return err
	}

	// Publish documents: small pages (cached, LRU) and a large archive
	// (no-cache policy, non-caching read path).
	docs := []struct {
		path string
		size int
	}{
		{"/index.html", 2200},
		{"/papers/sosp.ps", 180_000}, // large: never cached
		{"/people.html", 3100},
	}
	replica := in.Machine("www-spin2")
	for _, doc := range docs {
		body := []byte(strings.Repeat("x", doc.size))
		if err := server.FS.Create(doc.path, body); err != nil {
			return err
		}
		if err := replica.FS.Create(doc.path, body); err != nil {
			return err
		}
	}
	cache := fs.NewWebCache(server.FS, 256<<10, 64<<10)
	tracer := server.EnableTracing(1024)
	// The debug pages: the server machine's counters and the balancer's
	// and dialer's, plus the dispatch ring and the fault log.
	pages := debugContent{docs: cache, metrics: []metrics.Source{server, bal, rd}, logs: map[string]func() string{
		"/debug/trace":  tracer.Dump,
		"/debug/faults": func() string { return netdbg.FaultReport(server.Dispatcher) + "\n" },
	}}
	if _, err := netstack.NewHTTPServerOwned("httpd-www-spin", server.Stack, 80, netstack.InKernelDelivery, pages); err != nil {
		return err
	}
	// The replica serves the same tree (its own cache, no debug pages) and
	// is wired for crash-only teardown: destroying its server domain drops
	// the listener and withdraws www-spin2.spin.test from the zone.
	if _, err := netstack.NewHTTPServerOwned("httpd-www-spin2", replica.Stack, 80, netstack.InKernelDelivery,
		fs.NewWebCache(replica.FS, 256<<10, 64<<10)); err != nil {
		return err
	}
	if err := in.WithdrawOnDestroy("www-spin2", "httpd-www-spin2"); err != nil {
		return err
	}

	// The strand_ metrics show real switches, steals and migrations
	// alongside the HTTP traffic.
	vnet.RunDemoStrands(server)

	fmt.Fprintln(out, "spin-httpd: in-kernel HTTP server on", server.Stack.IP)
	fmt.Fprintf(out, "%-18s %-6s %10s %8s %s\n", "path", "try", "latency", "status", "cache")
	for _, doc := range docs {
		path := doc.path
		for i := 0; i < requests; i++ {
			var status string
			done := false
			start := client.Clock.Now()
			err := netstack.HTTPGet(client.Stack, server.Stack.IP, 80, path,
				netstack.InKernelDelivery, func(s string, _ []byte) {
					status = s
					done = true
				})
			if err != nil {
				return err
			}
			if !in.RunUntil(func() bool { return done }, 0) {
				return fmt.Errorf("request for %s never completed", path)
			}
			latency := client.Clock.Now().Sub(start)
			state := "miss->cached"
			if cache.Cached(path) && i > 0 {
				state = "hit"
			} else if !cache.Cached(path) {
				state = "no-cache (large)"
			}
			fmt.Fprintf(out, "%-18s %-6d %10s %8s %s\n", path, i+1, latency, strings.Fields(status)[1], state)
		}
	}
	hits, misses := server.FS.CacheStats()
	fmt.Fprintf(out, "\nbuffer cache: %d hits, %d misses; web cache: %d hits, %d misses, %d large bypasses\n",
		hits, misses, cache.Hits, cache.Misses, cache.LargeReads)

	// Fetch the kernel's own metrics page over the wire, like any client
	// would, a prefix at a time: the stack, the scheduler's per-CPU
	// counters and the verified programs.
	// Pages go through the topology's driver: once net/http has run, its
	// transport goroutines may still be closing connections, and the
	// driver is what serializes them with this goroutine.
	showPage := func(path, note string) error {
		var page []byte
		got := false
		var err error
		in.Driver().Run(func() {
			err = netstack.HTTPGet(client.Stack, server.Stack.IP, 80, path,
				netstack.InKernelDelivery, func(_ string, body []byte) {
					page = bytes.Clone(body) // the body is lent until done returns
					got = true
				})
		})
		if err != nil {
			return err
		}
		in.Driver().WaitUntil(func() bool { return got })
		fmt.Fprintf(out, "\nGET %s%s:\n%s", path, note, page)
		return nil
	}
	if err := showPage("/debug/metrics?prefix=net_", " (also available: /debug/metrics, /debug/trace, /debug/faults)"); err != nil {
		return err
	}
	for _, prefix := range []string{"strand_", "bcode_"} {
		if err := showPage("/debug/metrics?prefix="+prefix, ""); err != nil {
			return err
		}
	}

	// Finally, the same page fetched the way any Go program would: an
	// unmodified net/http client whose transport dials through the
	// simulation — resolve web.spin.test at the ns machine, handshake,
	// request. From here on the vnet driver owns the cluster.
	dialer, err := in.Dialer("browser")
	if err != nil {
		return err
	}
	conns := &closeTracker{drv: in.Driver()}
	httpc := &http.Client{Transport: &http.Transport{
		DialContext:       conns.track(dialer.DialContext),
		DisableKeepAlives: true,
	}}
	resp, err := httpc.Get("http://web.spin.test/index.html")
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nnet/http GET http://web.spin.test/index.html: %s, %d bytes (DNS: %v query, %v sent)\n",
		resp.Status, len(body), metrics.Value(client.Resolver, "dns_resolver_lookups"),
		metrics.Value(client.Resolver, "dns_resolver_sent"))

	// Failover: the same net/http client, now dialing through the
	// resilient dialer — the ring spreads requests across both replicas.
	// Mid-stream the replica's server domain is crash-killed; its dial
	// failures trip the breaker (passive outlier detection), the ring
	// ejects it, and every later request lands on the survivor.
	lbc := &http.Client{Transport: &http.Transport{
		DialContext:       conns.track(rd.DialContext),
		DisableKeepAlives: true,
	}}
	fetch := func() error {
		resp, err := lbc.Get("http://web.spin.test/index.html")
		if err != nil {
			return err
		}
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		return err
	}
	fmt.Fprintf(out, "\nload-balanced fetches across [www-spin www-spin2]:\n")
	for i := 0; i < 4; i++ {
		if err := fetch(); err != nil {
			return fmt.Errorf("balanced fetch %d: %w", i, err)
		}
	}
	var killed domain.DestroyReport
	in.Driver().Run(func() {
		killed = replica.DestroyDomain(domain.Identity{Name: "httpd-www-spin2"})
	})
	fmt.Fprintf(out, "  crash-killed www-spin2's server domain: reclaimed %v\n", killed.Reclaimed)
	for i := 0; i < 4; i++ {
		if err := fetch(); err != nil {
			return fmt.Errorf("post-kill fetch %d: %w", i, err)
		}
	}
	fmt.Fprintf(out, "  8/8 ok: requests=%v attempts=%v retries=%v failovers=%v ejections=%d\n",
		metrics.Value(rd, "lb_client_requests"), metrics.Value(rd, "lb_client_attempts"),
		metrics.Value(rd, "lb_client_retries"), metrics.Value(rd, "lb_client_failovers"), bal.Ejections())

	// The balancer's and dialer's metrics, the lb_ samples spin-dbg's
	// "metrics lb_" shows too. net/http's goroutines interleave freely, so
	// how far virtual time ran past the ejection differs run to run; settle
	// every pending timer first so the page shows one state (the breaker's
	// open timeout elapsed: half-open, awaiting a probe). Every connection
	// net/http dialled is closed first, so none closes after the run.
	conns.wait()
	in.Driver().Drain()
	if err := showPage("/debug/metrics?prefix=lb_", ""); err != nil {
		return err
	}
	// Let the page's own connection close, so that the run leaves no packet
	// in flight: net_packets_live counts every simulation in the process.
	in.Driver().Drain()
	return nil
}
