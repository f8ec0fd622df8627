package spin_test

// The benchmarks with no counterpart in benchmark/ or cmd/spin-bench:
// contended dispatch across GOMAXPROCS goroutines and the 2^20-connection
// table. Everything else is measured by `go run ./benchmark` (per-layer
// probes, parent against change) and `spin-bench` (the paper's tables), and
// enforced by gates_test.go.

import (
	"fmt"
	"testing"

	"spin/internal/bench"
	"spin/internal/dispatch"
	"spin/internal/sim"
)

// benchmarkDispatchRaiseParallel measures Raise throughput on GOMAXPROCS
// machines at once: each goroutine owns one dispatcher and its clock (a
// raise charges the clock, so only its owner raises) and raises
// round-robin across nEvents distinct events, each with a single unguarded
// primary (the paper's direct-call fast path). Machines share no lock, so
// throughput should scale with GOMAXPROCS.
func benchmarkDispatchRaiseParallel(b *testing.B, nEvents int) {
	names := make([]string, nEvents)
	for i := range names {
		names[i] = fmt.Sprintf("Bench.Event%d", i)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		d := dispatch.New(sim.NewEngine(), &sim.SPINProfile)
		for _, name := range names {
			if err := d.Define(name, dispatch.DefineOptions{
				Primary: func(_, _ any) any { return nil },
			}); err != nil {
				b.Error(err)
				return
			}
		}
		i := 0
		for pb.Next() {
			d.Raise(names[i%nEvents], i)
			i++
		}
	})
}

func BenchmarkDispatchRaiseParallel1(b *testing.B)  { benchmarkDispatchRaiseParallel(b, 1) }
func BenchmarkDispatchRaiseParallel8(b *testing.B)  { benchmarkDispatchRaiseParallel(b, 8) }
func BenchmarkDispatchRaiseParallel64(b *testing.B) { benchmarkDispatchRaiseParallel(b, 64) }

// BenchmarkMillionConns holds 2^20 concurrent established connections in
// one stack — the C10M scaling claim — and reports per-connection setup
// cost and heap. Setup cost must stay O(1) in table size: an insert is one
// map write (compare netstack.tcp.conn_setup_ns in BENCHMARK.json, the
// same sweep at 1/16 the size; residual growth is GC mark work over the
// live heap and the map doubling).
func BenchmarkMillionConns(b *testing.B) {
	var last bench.ConnScaleResult
	for i := 0; i < b.N; i++ {
		res, err := bench.MeasureConnScaling(1 << 20)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.SetupNsPerConn, "conn-setup-ns")
	b.ReportMetric(last.BytesPerConn, "B/conn")
	b.ReportMetric(float64(last.Conns), "conns")
}
