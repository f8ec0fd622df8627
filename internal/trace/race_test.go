package trace

import (
	"fmt"
	"strings"
	"testing"

	"spin/internal/sim"
)

// Eight writers' records interleaved on the tracer's one owner, with
// Snapshot, Dump and Metrics read between puts: every snapshot is the last
// Cap records in sequence order, each carrying the fields its writer set,
// and the published and histogram totals are exact.
func TestRingTortureConcurrentPutSnapshot(t *testing.T) {
	tr := New(256)
	const (
		writers = 8
		perW    = 20000
	)
	for i := 0; i < perW; i++ {
		for w := 0; w < writers; w++ {
			tr.Trace(Record{
				Event:    fmt.Sprintf("ev%d", w%4),
				Origin:   "interleaved",
				Handlers: w,
				Start:    sim.Time(i),
				Duration: sim.Duration(i % 1024),
				Outcome:  Outcome(i % 3),
			})
		}
		if i%997 != 0 {
			continue
		}
		snap := tr.Snapshot()
		published := tr.Ring().Published()
		if want := min(published, uint64(tr.Ring().Cap())); uint64(len(snap)) != want {
			t.Fatalf("snapshot holds %d records, want %d", len(snap), want)
		}
		for k, rec := range snap {
			seq := published - uint64(len(snap)) + uint64(k)
			w := int(seq % writers)
			if rec.Seq != seq || rec.Origin != "interleaved" || rec.Handlers != w || rec.Event != fmt.Sprintf("ev%d", w%4) {
				t.Fatalf("record %d of the snapshot = %+v, want seq %d from writer %d", k, rec, seq, w)
			}
		}
		_ = tr.Dump()
		tr.Metrics(func(string, float64) {})
	}
	if got := tr.Ring().Published(); got != writers*perW {
		t.Errorf("published = %d, want %d", got, writers*perW)
	}
	var histoTotal float64
	tr.Metrics(func(name string, v float64) {
		if strings.HasPrefix(name, "trace_latency_ns_count") {
			histoTotal += v
		}
	})
	if histoTotal != writers*perW {
		t.Errorf("histogram samples = %v, want %d", histoTotal, writers*perW)
	}
}

// First Observes on many distinct names, interleaved with a shared series,
// each create exactly one series.
func TestTracerConcurrentNewSeries(t *testing.T) {
	tr := New(64)
	for i := 0; i < 200; i++ {
		for g := 0; g < 8; g++ {
			tr.Observe(fmt.Sprintf("series-%d-%d", g, i), sim.Duration(i))
			tr.Observe("shared", sim.Duration(i))
		}
	}
	if got := strings.Count(page(t, tr, "trace_latency_ns_count"), "\n"); got != 8*200+1 {
		t.Errorf("series count = %d, want %d", got, 8*200+1)
	}
	h, _ := tr.Histogram("shared")
	if h.Count() != 8*200 {
		t.Errorf("shared count = %d, want %d", h.Count(), 8*200)
	}
}
