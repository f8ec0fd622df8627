package spin_test

// The benchmarks with no counterpart in benchmark/ or cmd/spin-bench:
// contended dispatch across GOMAXPROCS goroutines, RX-worker scaling, and
// the 2^20-connection table. Everything else is measured by
// `go run ./benchmark` (per-layer probes, parent against change) and
// `spin-bench` (the paper's tables), and enforced by gates_test.go.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"spin/internal/bench"
	"spin/internal/dispatch"
	"spin/internal/netstack"
	"spin/internal/sal"
	"spin/internal/sim"
)

// benchmarkDispatchRaiseParallel measures Raise throughput under contention:
// GOMAXPROCS goroutines raising round-robin across nEvents distinct events,
// each with a single unguarded primary (the paper's direct-call fast path).
// With the copy-on-write snapshot dispatcher, raises of unrelated events
// share no lock, so multi-event throughput should scale with GOMAXPROCS
// rather than serialize on a dispatcher-wide mutex.
func benchmarkDispatchRaiseParallel(b *testing.B, nEvents int) {
	eng := sim.NewEngine()
	d := dispatch.New(eng, &sim.SPINProfile)
	names := make([]string, nEvents)
	for i := range names {
		names[i] = fmt.Sprintf("Bench.Event%d", i)
		if err := d.Define(names[i], dispatch.DefineOptions{
			Primary: func(_, _ any) any { return nil },
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
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

// benchmarkParallelRX measures aggregate receive throughput with nics
// simulated NICs, each drained by its own RX worker goroutine: producers
// inject UDP datagrams round-robin across the per-NIC bounded queues
// (retrying through backpressure) and the run ends once the in-kernel sink
// has consumed every datagram. The receive path is lock-free (COW port and
// route tables, sharded reassembly, atomic counters), so with GOMAXPROCS >=
// nics aggregate throughput should scale with the worker count; on a single
// CPU the variants measure the bounded-queue overhead instead.
func benchmarkParallelRX(b *testing.B, nics int) {
	eng := sim.NewEngine()
	prof := &sim.SPINProfile
	d := dispatch.New(eng, prof)
	ic := sal.NewInterruptController(eng, prof)
	st, err := netstack.NewStack("bench", netstack.Addr(10, 0, 0, 1), eng, prof, d)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < nics; i++ {
		// Inject-only NICs: never connected, never interrupt-driven.
		st.Attach(sal.NewNIC(sal.LanceModel, eng, ic, sal.VecNIC0))
	}
	sink, err := st.UDP().Sink(9, netstack.InKernelDelivery)
	if err != nil {
		b.Fatal(err)
	}
	st.StartRXWorkers()
	defer st.StopRXWorkers()

	var producer atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		n := int(producer.Add(1)-1) % nics
		// The receive path never writes to a plain UDP packet, so one
		// packet per producer rides every injection.
		pkt := &netstack.Packet{
			Src: netstack.Addr(10, 0, 0, 2), Dst: netstack.Addr(10, 0, 0, 1),
			Proto: netstack.ProtoUDP, SrcPort: 1, DstPort: 9,
			Payload: make([]byte, 32), TTL: 32,
		}
		for pb.Next() {
			for !st.InjectRX(n, pkt) {
				runtime.Gosched()
			}
		}
	})
	// Throughput includes the drain: the run isn't over until the sink has
	// consumed everything injected.
	for sink.Packets() < int64(b.N) {
		runtime.Gosched()
	}
	b.StopTimer()
	if got := sink.Packets(); got != int64(b.N) {
		b.Fatalf("sink = %d packets, want %d", got, b.N)
	}
}

func BenchmarkParallelRX1(b *testing.B) { benchmarkParallelRX(b, 1) }
func BenchmarkParallelRX2(b *testing.B) { benchmarkParallelRX(b, 2) }
func BenchmarkParallelRX4(b *testing.B) { benchmarkParallelRX(b, 4) }

// BenchmarkMillionConns holds 2^20 concurrent established connections in
// one stack — the C10M scaling claim — and reports per-connection setup
// cost and heap. Setup cost must stay O(1) in table size: an insert is one
// write to one of 64 maps (compare netstack.tcp.conn_setup_ns in
// BENCHMARK.json, the same sweep at 1/16 the size; residual growth is GC
// mark work over the live heap and the maps doubling).
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
