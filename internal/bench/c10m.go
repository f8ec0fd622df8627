package bench

import (
	"fmt"
	"runtime"
	"time"

	"spin/internal/dispatch"
	"spin/internal/netstack"
	"spin/internal/sim"
)

// C10M connection scaling: the paper's §5 argument is that extensibility
// need not cost performance; the ROADMAP's C10M item pushes that to
// production scale — one kernel holding ~10⁶ concurrent TCP connections.
// This experiment measures the property that makes it possible: with the
// sharded connection table, per-connection setup cost is O(1) in table
// size (an insert is one write to one shard's map), and the
// syncookie-style half-open path allocates nothing per SYN. The paper has
// no corresponding column (its Alpha had 64 MB of RAM), so paper cells are
// n/a; the measured curve is the artifact.

// ConnScaleResult is one connection-scaling run.
type ConnScaleResult struct {
	Conns          int
	SetupNsPerConn float64 // wall ns per established connection (SYN + ACK)
	BytesPerConn   float64 // heap growth per connection at steady state
}

// MeasureConnScaling drives n server-side handshakes (one SYN, one final
// ACK each, distinct 4-tuples) straight into a stack's TCP module and
// reports per-connection setup cost and memory. Wall-clock time, not
// virtual: the point is host-side data-structure cost, which virtual time
// deliberately hides.
func MeasureConnScaling(n int) (ConnScaleResult, error) {
	eng := sim.NewEngine()
	disp := dispatch.New(eng, &sim.SPINProfile)
	st, err := netstack.NewStack("c10m", netstack.Addr(10, 0, 0, 1), eng, &sim.SPINProfile, disp)
	if err != nil {
		return ConnScaleResult{}, err
	}
	tcp := st.TCP()
	if err := tcp.Listen(80, nil, func(*netstack.Conn) {}); err != nil {
		return ConnScaleResult{}, err
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	pkt := &netstack.Packet{Dst: st.IP, DstPort: 80, Proto: netstack.ProtoTCP}
	start := time.Now()
	for i := 0; i < n; i++ {
		// Distinct 4-tuples: 14 bits of port, the rest in the address.
		pkt.Src = netstack.Addr(10, 1, 0, 0) + netstack.IPAddr(i>>14)
		pkt.SrcPort = uint16(1024 + i&0x3fff)
		pkt.Flags, pkt.Seq, pkt.Ack, pkt.Window = netstack.FlagSYN, 10, 0, 32*1024
		tcp.Deliver(pkt)
		pkt.Flags, pkt.Seq, pkt.Ack = netstack.FlagACK, 11, 1001
		tcp.Deliver(pkt)
	}
	elapsed := time.Since(start)

	if got := tcp.Conns(); got != n {
		return ConnScaleResult{}, fmt.Errorf("c10m: %d connections established, want %d", got, n)
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	heap := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	if heap < 0 {
		heap = 0
	}
	return ConnScaleResult{
		Conns:          n,
		SetupNsPerConn: float64(elapsed.Nanoseconds()) / float64(n),
		BytesPerConn:   heap / float64(n),
	}, nil
}

// c10mSizes is the connections-vs-memory sweep; the top size stays modest
// here so `spin-bench c10m` finishes quickly — BenchmarkMillionConns in the
// root package runs the full 2^20.
var c10mSizes = []int{10_000, 50_000, 200_000}

// RunC10M reproduces the connections-vs-memory experiment.
func RunC10M() (*Table, error) {
	tb := &Table{
		ID:      "c10m",
		Title:   "TCP connection scaling (sharded table, syncookie SYN path)",
		Columns: []string{"setup ns/conn", "heap B/conn"},
		Unit:    "ns and bytes per connection",
		Notes: []string{
			"no paper counterpart: validates O(1)-in-table-size setup on the grown stack",
			"setup = SYN + final ACK delivered straight to the TCP module (no wire)",
		},
	}
	for _, n := range c10mSizes {
		r, err := MeasureConnScaling(n)
		if err != nil {
			return nil, err
		}
		tb.Rows = append(tb.Rows, Row{
			Label:    fmt.Sprintf("%d connections", n),
			Paper:    []float64{NA, NA},
			Measured: []float64{r.SetupNsPerConn, r.BytesPerConn},
		})
	}
	return tb, nil
}
