package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spin"
	"spin/internal/netstack"
	"spin/internal/sim"
	"spin/internal/vnet"
)

// starPages is how many distinct documents the star's web server holds;
// the seed picks which one each request fetches.
const starPages = 8

// httpStar is the ROADMAP's "one request" topology: web server, client and
// DNS authority around one switch, 200 µs spokes.
type httpStar struct {
	netInstance
	seed   uint64
	ops    int
	client *spin.Machine
	paths  []string
	bodies [][]byte
}

func newHTTPStar(seed uint64, ops int) (*httpStar, error) {
	edge := vnet.LinkModel{Latency: 200 * sim.Microsecond}
	in, err := vnet.NewBuilder(seed).
		Machine("web", 0).Machine("client", 0).Machine("ns", 0).Switch("s0").
		Link("web", "s0", edge).Link("client", "s0", edge).Link("ns", "s0", edge).
		Build()
	if err != nil {
		return nil, err
	}
	if err := in.EnableDNS("ns"); err != nil {
		return nil, err
	}
	h := &httpStar{seed: seed, ops: ops, client: in.Machine("client")}
	h.adopt(in)
	h.paths, h.bodies = pages(sim.NewRand(seed), starPages)
	if err := serveHTTP(in.Machine("web"), h.paths, h.bodies); err != nil {
		return nil, err
	}
	settle(in.Cluster()) // storing the documents cost the web server disk time
	return h, nil
}

// kernelGet starts one uncached resolve + HTTP GET from client in the
// callback API. When the transfer ends it stores the client's clock in
// *end, whether the body matched in *ok, and sets *done.
func kernelGet(client *spin.Machine, host, path string, want []byte, end *sim.Time, ok, done *bool) {
	finish := func(good bool) {
		*end, *ok, *done = client.Clock.Now(), good, true
	}
	client.Resolver.FlushCache()
	client.Resolver.LookupA(host, func(addrs []netstack.IPAddr, err error) {
		if err != nil || len(addrs) == 0 {
			finish(false)
			return
		}
		err = netstack.HTTPGet(client.Stack, addrs[0], 80, path, netstack.InKernelDelivery,
			func(status string, body []byte) {
				finish(strings.Contains(status, " 200 ") && bytes.Equal(body, want))
			})
		if err != nil {
			finish(false)
		}
	})
}

// httpKernel drives the star through the kernel's own callback API.
type httpKernel struct{ *httpStar }

func setupHTTPKernel(seed uint64, sc scale) (instance, error) {
	star, err := newHTTPStar(seed, sc.pick(4000, 60))
	if err != nil {
		return nil, err
	}
	h := httpKernel{star}
	// Warm-up: fill the web cache and the allocator's free lists.
	if st, err := h.run(sc.pick(2000, 10)); err != nil || st.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d failed, err %v", st.failed, err)
	}
	return h, nil
}

func (h httpKernel) batch() (batchStats, error) { return h.run(h.ops) }

func (h httpKernel) run(ops int) (batchStats, error) {
	st := batchStats{ops: ops, lat: make([]float64, 0, ops)}
	rng := sim.NewRand(h.seed ^ 0x9e3779b97f4a7c15)
	cluster := h.in.Cluster()
	for i := 0; i < ops; i++ {
		p := rng.Intn(len(h.paths))
		var end sim.Time
		var ok, done bool
		start := h.client.Clock.Now()
		kernelGet(h.client, "web.spin.test", h.paths[p], h.bodies[p], &end, &ok, &done)
		st.events += stepUntil(cluster, &done)
		if !done || !ok {
			st.fail("request %d for %s: done=%v, body verified=%v", i, h.paths[p], done, ok)
		}
		lat := end.Sub(start)
		st.virt += lat
		st.lat = append(st.lat, lat.Micros())
		// Let the FIN exchange and TIME_WAIT retire the connection, so
		// every request starts from the same state.
		st.events += settle(cluster)
	}
	return st, nil
}

// countingStepper counts the events a Driver executes on a cluster.
type countingStepper struct {
	c *sim.Cluster
	n atomic.Int64
}

func (s *countingStepper) Step() bool {
	if !s.c.Step() {
		return false
	}
	s.n.Add(1)
	return true
}

// httpSockets issues the same request from unmodified net/http: blocking
// goroutines are the clock, through the Driver and the net.Conn adapters.
type httpSockets struct {
	*httpStar
	steps *countingStepper
	drv   *netstack.Driver
	httpc *http.Client
	// spans, when non-nil, receives one request record per op (traced run);
	// cur is the request in flight, read by net/http's dial goroutine.
	spans *spanLog
	cur   atomic.Pointer[requestSpans]
	// dialed receives every connection net/http dials, so that a request
	// can wait until the transport has closed its own.
	dialed chan *closingConn
}

// closingConn is the net.Conn the dialer returned, telling when it has been
// closed. net/http closes a connection from a goroutine of its own, after
// the caller has its body: a request that did not wait for that would leave
// a goroutine inside the simulation while the harness reads it.
type closingConn struct {
	net.Conn
	once   sync.Once
	closed chan struct{}
}

func (c *closingConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(func() { close(c.closed) })
	return err
}

// closeWait bounds how long a request waits for net/http to close a
// connection whose response has been read.
const closeWait = 5 * time.Second

// awaitClose waits until every connection dialled so far has been closed.
func (h *httpSockets) awaitClose() error {
	for {
		select {
		case c := <-h.dialed:
			// A timer that is stopped, not time.After: thousands of
			// requests a second would each leave one pending for 5 s.
			timeout := time.NewTimer(closeWait)
			select {
			case <-c.closed:
				timeout.Stop()
			case <-timeout.C:
				return fmt.Errorf("net/http left a connection open for %v", closeWait)
			}
		default:
			return nil
		}
	}
}

func setupHTTPSockets(seed uint64, sc scale) (instance, error) {
	star, err := newHTTPStar(seed, sc.pick(1500, 30))
	if err != nil {
		return nil, err
	}
	h := &httpSockets{httpStar: star, steps: &countingStepper{c: star.in.Cluster()}, dialed: make(chan *closingConn, 16)}
	// The topology's own Dialer, built over a Driver whose stepper counts
	// events: Internet.Dialer is exactly NewSockets(Driver(), ...).Dialer().
	h.drv = netstack.NewDriver(h.steps)
	dialer := netstack.NewSockets(h.drv, h.client.Stack, h.client.Resolver).Dialer()
	h.httpc = &http.Client{Transport: &http.Transport{
		DisableKeepAlives: true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			cc := &closingConn{Conn: c, closed: make(chan struct{})}
			h.dialed <- cc
			if rs := h.cur.Load(); rs != nil {
				return rs.wrap(cc), nil
			}
			return cc, nil
		},
	}}
	if st, err := h.run(sc.pick(600, 5)); err != nil || st.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d failed, err %v", st.failed, err)
	}
	return h, nil
}

func (h *httpSockets) batch() (batchStats, error) { return h.run(h.ops) }

func (h *httpSockets) run(ops int) (batchStats, error) {
	st := batchStats{ops: ops, lat: make([]float64, 0, ops)}
	rng := sim.NewRand(h.seed ^ 0x9e3779b97f4a7c15)
	events := h.steps.n.Load()
	for i := 0; i < ops; i++ {
		p := rng.Intn(len(h.paths))
		h.drv.Run(h.client.Resolver.FlushCache)
		var rs *requestSpans
		var hostStart time.Time
		if h.spans != nil {
			hostStart = time.Now()
			rs = h.spans.begin(h.client.Clock)
			h.cur.Store(rs)
		}
		start := h.client.Clock.Now()
		err := h.get("http://web.spin.test"+h.paths[p], h.bodies[p])
		if cerr := h.awaitClose(); err == nil {
			err = cerr
		}
		if rs != nil {
			if !rs.finish() && err == nil {
				err = fmt.Errorf("span boundaries missing or out of order: %v", rs.marks)
			}
			h.cur.Store(nil)
		}
		lat := h.client.Clock.Now().Sub(start)
		if rs != nil {
			h.spans.opHost = append(h.spans.opHost, time.Since(hostStart))
			h.spans.opVirt = append(h.spans.opVirt, lat)
		}
		if err != nil {
			st.fail("request %d: %v", i, err)
		}
		st.virt += lat
		st.lat = append(st.lat, lat.Micros())
		h.drv.Drain()
	}
	st.events = h.steps.n.Load() - events
	return st, nil
}

// setTracing also starts a fresh span log with the kernel tracers.
func (h *httpSockets) setTracing(on bool) {
	h.httpStar.setTracing(on)
	if on {
		h.spans = &spanLog{}
	}
}

// takeSpans hands over the spans recorded since tracing was switched on.
func (h *httpSockets) takeSpans() *spanLog {
	log := h.spans
	h.spans = nil
	return log
}

// get fetches url and checks the body byte for byte.
func (h *httpSockets) get(url string, want []byte) error {
	resp, err := h.httpc.Get(url)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		return err
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	case !bytes.Equal(body, want):
		return fmt.Errorf("GET %s: body of %d bytes differs from the document", url, len(body))
	}
	return nil
}
