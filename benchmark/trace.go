package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"spin/internal/sim"
	"spin/internal/trace"
)

// traceSeries are the kernel's own latency series (PR 2), one histogram per
// machine, merged over every machine of the topology.
var traceSeries = []struct{ series, metric string }{
	{"net.rx", "trace.net.rx_virt_us"},
	{"net.ip.reassemble", "trace.net.ip.reassemble_virt_us"},
	{"net.tcp.deliver", "trace.net.tcp.deliver_virt_us"},
	{"net.http.serve", "trace.net.http.serve_virt_us"},
}

// histogramMetrics merges each kernel series over all tracers and reports
// its sample count, mean and p99. The p99 is the upper bound of the log₂
// bucket that holds the 99th-percentile sample.
func histogramMetrics(values map[string]float64, tracers []*trace.Tracer) {
	for _, s := range traceSeries {
		var count int64
		var sum float64
		buckets := map[sim.Duration]int64{}
		for _, tr := range tracers {
			h, ok := tr.Histogram(s.series)
			if !ok {
				continue
			}
			count += h.Count()
			sum += float64(h.Mean()) * float64(h.Count())
			for _, b := range h.Snapshot() {
				buckets[b.Low] += b.Count
			}
		}
		values[s.metric+".count"] = float64(count)
		values[s.metric+".mean"] = 0
		values[s.metric+".p99"] = 0
		if count == 0 {
			continue
		}
		values[s.metric+".mean"] = sum / float64(count) / float64(sim.Microsecond)
		lows := make([]sim.Duration, 0, len(buckets))
		for low := range buckets {
			lows = append(lows, low)
		}
		sort.Slice(lows, func(i, j int) bool { return lows[i] < lows[j] })
		rank := int64(math.Ceil(0.99 * float64(count)))
		for _, low := range lows {
			if rank -= buckets[low]; rank <= 0 {
				high := 2 * low
				if low == 0 {
					high = 1
				}
				values[s.metric+".p99"] = float64(high) / float64(sim.Microsecond)
				break
			}
		}
	}
}

// spanNames are the benchmark-side spans of one socket request, in order.
// Each runs from the end of the one before it (the first from the start of
// the request) to its own boundary:
//
//	resolve_dial  until the dialer returned an established connection
//	write         until the last request byte was written
//	first_byte    until the first response byte was read
//	body          until the last response byte was read
//	close         until the connection was closed and the caller had its body
var spanNames = []string{"resolve_dial", "write", "first_byte", "body", "close"}

// stamp is one instant in both clocks.
type stamp struct {
	host time.Time
	virt sim.Time
}

// requestSpans records the span boundaries of one request. net/http drives
// a connection from several goroutines, so the marks are locked.
type requestSpans struct {
	id    int
	clock *sim.Clock

	mu     sync.Mutex
	marks  [6]stamp // request start, then the end of each span
	dialed bool
}

func (r *requestSpans) now() stamp { return stamp{time.Now(), r.clock.Now()} }

func (r *requestSpans) mark(i int) {
	r.mu.Lock()
	r.marks[i] = r.now()
	r.mu.Unlock()
}

// wrap records the dial boundary and returns c instrumented.
func (r *requestSpans) wrap(c net.Conn) net.Conn {
	r.mu.Lock()
	r.marks[1] = r.now()
	r.dialed = true
	r.mu.Unlock()
	return &spanConn{Conn: c, r: r}
}

// spanConn is the net.Conn the dialer returned, with the span boundaries
// recorded around its calls. That is the whole instrument: nothing inside
// the program under test is touched.
type spanConn struct {
	net.Conn
	r *requestSpans
}

func (c *spanConn) Write(p []byte) (int, error) {
	// The boundary is when Write returns. But net/http writes from a
	// goroutine of its own, which can be descheduled right there while the
	// response arrives and the request ends; so stamp on the way in too,
	// and keep that stamp once a response byte has been seen.
	c.r.mark(2)
	n, err := c.Conn.Write(p)
	c.r.mu.Lock()
	if c.r.marks[3].host.IsZero() {
		c.r.marks[2] = c.r.now()
	}
	c.r.mu.Unlock()
	return n, err
}

func (c *spanConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.r.mu.Lock()
		now := c.r.now()
		if c.r.marks[3].host.IsZero() {
			c.r.marks[3] = now
		}
		c.r.marks[4] = now
		c.r.mu.Unlock()
	}
	return n, err
}

// finish ends the request, once the transport has closed the connection:
// it records the last boundary and reports whether every boundary was seen
// in order.
func (r *requestSpans) finish() bool {
	r.mu.Lock()
	dialed := r.dialed
	r.mu.Unlock()
	if !dialed {
		return false
	}
	r.mark(5)
	for i := 1; i < len(r.marks); i++ {
		if r.marks[i].host.IsZero() || r.marks[i].host.Before(r.marks[i-1].host) || r.marks[i].virt < r.marks[i-1].virt {
			return false
		}
	}
	return true
}

// spanLog keeps every request's spans in memory until the run ends.
type spanLog struct {
	requests []*requestSpans
	// opHost and opVirt are each request's latency as the workload itself
	// measured it, around the spans.
	opHost []time.Duration
	opVirt []sim.Duration
}

// begin opens the spans of the next request.
func (l *spanLog) begin(clock *sim.Clock) *requestSpans {
	r := &requestSpans{id: len(l.requests), clock: clock}
	r.marks[0] = r.now()
	l.requests = append(l.requests, r)
	return r
}

// spanner is a workload instance that records benchmark-side spans.
type spanner interface {
	takeSpans() *spanLog
}

// spanTolerance is how far the spans of a request may fall short of (or
// overshoot) the request's own latency, in either clock.
const spanTolerance = 0.05

// spanMetrics reports each span's share of request latency in both clocks
// and how much of the latency the spans cover, checks the coverage, and
// writes the spans out as a Chrome trace. Workloads without spans report 0.
func spanMetrics(values map[string]float64, res *result, inst instance, workload, dir string) error {
	for _, s := range spanNames {
		values["span."+s+".host_share"] = 0
		values["span."+s+".virt_share"] = 0
	}
	values["span.coverage_host"] = 0
	values["span.coverage_virt"] = 0
	sp, ok := inst.(spanner)
	if !ok {
		return nil
	}
	log := sp.takeSpans()
	if log == nil || len(log.requests) == 0 {
		res.violate("%s: traced run recorded no spans", workload)
		return nil
	}
	var opHost, opVirt float64
	host := make([]float64, len(spanNames))
	virt := make([]float64, len(spanNames))
	for i, r := range log.requests {
		opHost += log.opHost[i].Seconds()
		opVirt += float64(log.opVirt[i])
		for s := range spanNames {
			host[s] += r.marks[s+1].host.Sub(r.marks[s].host).Seconds()
			virt[s] += float64(r.marks[s+1].virt.Sub(r.marks[s].virt))
		}
	}
	var sumHost, sumVirt float64
	for s, name := range spanNames {
		values["span."+name+".host_share"] = host[s] / opHost
		values["span."+name+".virt_share"] = virt[s] / opVirt
		sumHost += host[s]
		sumVirt += virt[s]
	}
	values["span.coverage_host"] = sumHost / opHost
	values["span.coverage_virt"] = sumVirt / opVirt
	for _, c := range []string{"span.coverage_host", "span.coverage_virt"} {
		if math.Abs(values[c]-1) > spanTolerance {
			res.violate("%s: %s = %.4f: spans do not add up to the request latency within %.0f%%", workload, c, values[c], 100*spanTolerance)
		}
	}
	return writeChromeTrace(filepath.Join(dir, "spans_"+workload+".json"), workload, log)
}

// chromeEvent is one complete ("X") event of the Chrome trace format;
// chrome://tracing and Perfetto both load a JSON array of them.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"` // 1 = host clock, 2 = virtual clock
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// chromeRequests is how many requests the span file holds: enough to look
// at, small enough to load. The span metrics cover every request.
const chromeRequests = 256

// writeChromeTrace writes the first chromeRequests requests' spans twice —
// once on the host clock (pid 1), once on the virtual clock (pid 2) —
// sharing the request id.
func writeChromeTrace(path, workload string, log *spanLog) error {
	requests := log.requests
	if len(requests) > chromeRequests {
		requests = requests[:chromeRequests]
	}
	epoch := requests[0].marks[0]
	events := make([]chromeEvent, 0, 2*len(spanNames)*len(requests))
	for _, r := range requests {
		args := map[string]any{"request": r.id}
		for s, name := range spanNames {
			a, b := r.marks[s], r.marks[s+1]
			events = append(events,
				chromeEvent{"span." + name, workload, "X",
					float64(a.host.Sub(epoch.host)) / 1e3, float64(b.host.Sub(a.host)) / 1e3, 1, 1, args},
				chromeEvent{"span." + name, workload, "X",
					a.virt.Sub(epoch.virt).Micros(), b.virt.Sub(a.virt).Micros(), 2, 1, args})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(events)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
