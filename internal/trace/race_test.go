package trace

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"spin/internal/sim"
)

// Torture (run under -race): concurrent Trace from many writers while
// readers Snapshot and Dump. The ring's atomic slot stores and the
// histograms' atomic buckets must never race, records must never tear, and
// the published and histogram totals must be exact.
func TestRingTortureConcurrentPutSnapshot(t *testing.T) {
	tr := New(256)
	const (
		writers = 8
		readers = 4
		perW    = 20000
	)
	var writerWg, readerWg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		w := w
		writerWg.Add(1)
		go func() {
			defer writerWg.Done()
			name := fmt.Sprintf("ev%d", w%4)
			for i := 0; i < perW; i++ {
				tr.Trace(Record{
					Event:    name,
					Origin:   "torture",
					Handlers: w,
					Start:    sim.Time(i),
					Duration: sim.Duration(i % 1024),
					Outcome:  Outcome(i % 3),
				})
			}
		}()
	}
	for r := 0; r < readers; r++ {
		readerWg.Add(1)
		go func() {
			defer readerWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := tr.Snapshot()
				// The snapshot must be sequence-ordered and untorn: every
				// record carries the fields its writer set together.
				for i, rec := range snap {
					if rec.Origin != "torture" {
						t.Errorf("torn record: %+v", rec)
						return
					}
					if i > 0 && rec.Seq < snap[i-1].Seq {
						t.Errorf("snapshot out of order: %d after %d", rec.Seq, snap[i-1].Seq)
						return
					}
				}
				_ = tr.Dump()
				tr.Metrics(func(string, float64) {})
			}
		}()
	}
	writerWg.Wait()
	close(stop)
	readerWg.Wait()
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

// Concurrent first-Observe on many distinct names exercises the
// copy-on-write histogram table insertion path.
func TestTracerConcurrentNewSeries(t *testing.T) {
	tr := New(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Observe(fmt.Sprintf("series-%d-%d", g, i), sim.Duration(i))
				tr.Observe("shared", sim.Duration(i))
			}
		}()
	}
	wg.Wait()
	if got := strings.Count(page(t, tr, "trace_latency_ns_count"), "\n"); got != 8*200+1 {
		t.Errorf("series count = %d, want %d", got, 8*200+1)
	}
	h, _ := tr.Histogram("shared")
	if h.Count() != 8*200 {
		t.Errorf("shared count = %d, want %d", h.Count(), 8*200)
	}
}
