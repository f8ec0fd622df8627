// Package trace is the kernel-wide event tracing and latency profiling
// subsystem — the other half of the paper's §3.2 monitoring style
// ("extensions passively monitor system activity, and provide up-to-date
// performance information to applications"). Where the metrics surface
// counts, trace records where virtual time goes: a fixed-size ring buffer of
// per-dispatch records, plus per-event and per-handler latency histograms in
// log₂ buckets that the dispatcher, netstack packet path, strand scheduler
// and VM pager feed.
//
// Tracing is zero-cost when disabled: the dispatcher holds a *Tracer and the
// disabled path is a single predictable nil check. A tracer belongs to one
// machine and, like the rest of it, is written and read only by whoever
// steps the machine's engine: Trace is a store into the ring by value and
// Observe a map read plus four plain updates, with no lock and no atomic.
package trace

import (
	"fmt"
	"strings"

	"spin/internal/metrics"
	"spin/internal/sim"
)

// Tracer owns one kernel's trace ring and histogram table.
type Tracer struct {
	ring *Ring

	// histos maps series name -> *Histogram.
	histos map[string]*Histogram
}

// DefaultRingSize is the default trace ring capacity.
const DefaultRingSize = 4096

// New returns a tracer with a ring of at least ringSize records
// (DefaultRingSize if ringSize <= 0).
func New(ringSize int) *Tracer {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	return &Tracer{ring: NewRing(ringSize), histos: make(map[string]*Histogram)}
}

// Trace publishes one record to the ring and feeds the event's latency
// histogram.
func (t *Tracer) Trace(rec Record) {
	t.ring.Put(rec)
	t.Observe(rec.Event, rec.Duration)
}

// Observe records one latency sample for the named series, creating the
// series on first use.
func (t *Tracer) Observe(name string, d sim.Duration) {
	h, ok := t.histos[name]
	if !ok {
		h = NewHistogram()
		t.histos[name] = h
	}
	h.Observe(d)
}

// Histogram returns the named latency series, if it has samples.
func (t *Tracer) Histogram(name string) (*Histogram, bool) {
	h, ok := t.histos[name]
	return h, ok
}

// Snapshot returns the ring's buffered records, oldest first.
func (t *Tracer) Snapshot() []Record { return t.ring.Snapshot() }

// Ring exposes the underlying ring (tests, torture harnesses).
func (t *Tracer) Ring() *Ring { return t.ring }

// Dump renders the trace ring as a text report: one line per buffered
// record, newest last.
func (t *Tracer) Dump() string {
	recs := t.Snapshot()
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace ring: %d records buffered, %d published (cap %d)\n",
		len(recs), t.ring.Published(), t.ring.Cap())
	for _, r := range recs {
		fmt.Fprintf(&sb, "  #%-6d t=%-12v %-9s %-28s handlers=%-2d dur=%-10v %s\n",
			r.Seq, r.Start, r.Origin, r.Event, r.Handlers, r.Duration, r.Outcome)
	}
	return sb.String()
}

// Metrics emits every latency series as a Prometheus histogram in virtual
// nanoseconds: the cumulative count at each non-empty log₂ bucket's upper
// bound, then the series' sum, count and largest sample.
func (t *Tracer) Metrics(emit metrics.Emit) {
	for name, h := range t.histos {
		l := fmt.Sprintf("{series=%q", name)
		var cum int64
		for i := range h.buckets {
			if n := h.buckets[i]; n > 0 {
				cum += n
				emit(fmt.Sprintf("trace_latency_ns_bucket%s,le=\"%d\"}", l, BucketLow(i+1)-1), float64(cum))
			}
		}
		emit("trace_latency_ns_bucket"+l+`,le="+Inf"}`, float64(cum))
		emit("trace_latency_ns_count"+l+"}", float64(cum))
		emit("trace_latency_ns_sum"+l+"}", float64(h.sum))
		emit("trace_latency_ns_max"+l+"}", float64(h.Max()))
	}
}
