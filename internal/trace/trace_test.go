package trace

import (
	"strings"
	"testing"

	"spin/internal/metrics"
	"spin/internal/sim"
)

func TestRingPutSnapshotOrder(t *testing.T) {
	r := NewRing(16)
	if r.Cap() != 16 {
		t.Fatalf("Cap = %d, want 16", r.Cap())
	}
	for i := 0; i < 10; i++ {
		r.Put(Record{Event: "E", Start: sim.Time(i)})
	}
	snap := r.Snapshot()
	if len(snap) != 10 {
		t.Fatalf("snapshot len = %d, want 10", len(snap))
	}
	for i, rec := range snap {
		if rec.Seq != uint64(i) || rec.Start != sim.Time(i) {
			t.Errorf("record %d: seq=%d start=%v", i, rec.Seq, rec.Start)
		}
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	r := NewRing(16)
	for i := 0; i < 40; i++ {
		r.Put(Record{Start: sim.Time(i)})
	}
	snap := r.Snapshot()
	if len(snap) != 16 {
		t.Fatalf("snapshot len = %d, want 16", len(snap))
	}
	if snap[0].Seq != 24 || snap[15].Seq != 39 {
		t.Errorf("wrapped window = [%d, %d], want [24, 39]", snap[0].Seq, snap[15].Seq)
	}
	if r.Published() != 40 {
		t.Errorf("Published = %d, want 40", r.Published())
	}
}

func TestRingRoundsCapacityUp(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{{1, 16}, {16, 16}, {17, 32}, {1000, 1024}} {
		if got := NewRing(tc.ask).Cap(); got != tc.want {
			t.Errorf("NewRing(%d).Cap() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram()
	samples := []sim.Duration{0, 1, 2, 3, 4, 100, 1000, 100000}
	for _, d := range samples {
		h.Observe(d)
	}
	if h.Count() != int64(len(samples)) {
		t.Fatalf("Count = %d, want %d", h.Count(), len(samples))
	}
	if h.Max() != 100000 {
		t.Errorf("Max = %v, want 100µs", h.Max())
	}
	// d=0 -> bucket 0; d=1 -> [1,2); d=2,3 -> [2,4); d=4 -> [4,8).
	snap := h.Snapshot()
	counts := map[sim.Duration]int64{}
	for _, b := range snap {
		counts[b.Low] = b.Count
	}
	if counts[0] != 1 || counts[1] != 1 || counts[2] != 2 || counts[4] != 1 {
		t.Errorf("low buckets wrong: %v", snap)
	}
	var total int64
	for _, b := range snap {
		total += b.Count
	}
	if total != int64(len(samples)) {
		t.Errorf("bucket total = %d, want %d", total, len(samples))
	}
	if snap[len(snap)-1].Low != 65536 { // 100000 falls in [65536, 131072)
		t.Errorf("top bucket starts at %v, want 65.536µs", snap[len(snap)-1].Low)
	}
	if h.Mean() <= 0 {
		t.Errorf("Mean = %v, want > 0", h.Mean())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Snapshot() != nil {
		t.Error("empty histogram should report zeros")
	}
}

func TestTracerObserveAndSeries(t *testing.T) {
	tr := New(64)
	tr.Observe("a", 10)
	tr.Observe("b", 20)
	tr.Observe("a", 30)
	if got, want := page(t, tr, "trace_latency_ns_count"),
		"trace_latency_ns_count{series=\"a\"} 2\ntrace_latency_ns_count{series=\"b\"} 1\n"; got != want {
		t.Fatalf("series =\n%s\nwant\n%s", got, want)
	}
	h, ok := tr.Histogram("a")
	if !ok || h.Count() != 2 {
		t.Fatalf("Histogram(a): ok=%v count=%d", ok, h.Count())
	}
	if _, ok := tr.Histogram("missing"); ok {
		t.Error("Histogram(missing) = ok")
	}
}

func TestTracerTraceFeedsRingAndHisto(t *testing.T) {
	tr := New(64)
	tr.Trace(Record{Event: "IP.PacketArrived", Origin: "dispatch", Handlers: 2,
		Start: 100, Duration: 50, Outcome: OutcomeOK})
	tr.Trace(Record{Event: "IP.PacketArrived", Origin: "dispatch", Handlers: 2,
		Start: 200, Duration: 70, Outcome: OutcomeAborted})
	recs := tr.Snapshot()
	if len(recs) != 2 {
		t.Fatalf("ring records = %d, want 2", len(recs))
	}
	if recs[1].Outcome != OutcomeAborted {
		t.Errorf("outcome = %v", recs[1].Outcome)
	}
	h, ok := tr.Histogram("IP.PacketArrived")
	if !ok || h.Count() != 2 {
		t.Fatalf("event histogram: ok=%v count=%d", ok, h.Count())
	}
	dump := tr.Dump()
	if !strings.Contains(dump, "IP.PacketArrived") || !strings.Contains(dump, "abort") {
		t.Errorf("Dump missing content:\n%s", dump)
	}
	// 50 falls in [32, 64) and 70 in [64, 128); the buckets are cumulative.
	want := `trace_latency_ns_bucket{series="IP.PacketArrived",le="+Inf"} 2
trace_latency_ns_bucket{series="IP.PacketArrived",le="127"} 2
trace_latency_ns_bucket{series="IP.PacketArrived",le="63"} 1
trace_latency_ns_count{series="IP.PacketArrived"} 2
trace_latency_ns_max{series="IP.PacketArrived"} 70
trace_latency_ns_sum{series="IP.PacketArrived"} 120
`
	if got := page(t, tr, ""); got != want {
		t.Errorf("metrics =\n%s\nwant\n%s", got, want)
	}
}

// page renders the tracer's samples under prefix.
func page(t *testing.T, tr *Tracer, prefix string) string {
	t.Helper()
	var sb strings.Builder
	if err := metrics.Write(&sb, prefix, tr); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{OutcomeOK: "ok", OutcomeAborted: "abort", OutcomeFaulted: "fault", Outcome(9): "?"} {
		if o.String() != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", o, o.String(), want)
		}
	}
}
