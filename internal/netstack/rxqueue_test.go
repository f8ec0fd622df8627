package netstack

// The bounded RX queue: backpressure at DefaultRXQueueDepth, the NIC's
// refusal count, and InjectRX's bounds.

import (
	"testing"

	"spin/internal/sal"
	"spin/internal/trace"
)

// multiNICHost builds one machine with n attached, unconnected NICs.
func multiNICHost(t *testing.T, n int) *host {
	t.Helper()
	h := newNetHost(t, "multi", Addr(10, 0, 0, 1), sal.LanceModel)
	for i := 1; i < n; i++ {
		// Inject-only NICs never take interrupts, so sharing a vector is
		// harmless.
		h.stack.Attach(sal.NewNIC(sal.LanceModel, h.eng, h.ic, sal.VecNIC1))
	}
	return h
}

// Backpressure is explicit: a full RX queue drops the packet, counts it, and
// emits a trace record — it never buffers without bound.
func TestRXQueueBackpressureDrops(t *testing.T) {
	h := newNetHost(t, "bp", Addr(10, 0, 0, 1), sal.LanceModel)
	s := h.stack
	tr := trace.New(64)
	s.Dispatcher().SetTracer(tr)
	sink, err := s.UDP().Sink(9, InKernelDelivery)
	if err != nil {
		t.Fatal(err)
	}
	// No workers and no engine steps: the queue fills at DefaultRXQueueDepth.
	const over = 50
	var ok, rejected int
	for i := 0; i < DefaultRXQueueDepth+over; i++ {
		pkt := &Packet{Src: Addr(10, 0, 0, 2), Dst: s.IP, Proto: ProtoUDP,
			SrcPort: 1, DstPort: 9, Payload: make([]byte, 8), TTL: 32}
		if s.InjectRX(0, pkt) {
			ok++
		} else {
			rejected++
		}
	}
	if ok != DefaultRXQueueDepth || rejected != over {
		t.Fatalf("accepted %d rejected %d, want %d and %d", ok, rejected, DefaultRXQueueDepth, over)
	}
	if dropped := counter(s, "net_rx_queue_dropped"); dropped != over {
		t.Errorf("rx.dropped = %d, want %d", dropped, over)
	}
	found := 0
	for _, rec := range tr.Snapshot() {
		if rec.Event == "net.rx.dropped" {
			found++
		}
	}
	if found == 0 {
		t.Error("no net.rx.dropped trace records emitted for dropped packets")
	}
	// The engine drains exactly what was accepted.
	h.eng.Run(0)
	if got := sink.Packets(); got != DefaultRXQueueDepth {
		t.Errorf("sink drained %d, want %d", got, DefaultRXQueueDepth)
	}
}

// The driver half of backpressure: when the stack upcall refuses a frame the
// NIC counts it as dropped-on-receive.
func TestNICCountsRefusedFrames(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	b.nic.OnReceive = func(sal.NetFrame) bool { return false }
	if err := a.stack.UDP().Send(1, Addr(10, 0, 0, 2), 9, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	cl.Run(0)
	if got := b.nic.RXDropped(); got != 1 {
		t.Errorf("RXDropped = %d, want 1", got)
	}
	if got := a.nic.RXDropped(); got != 0 {
		t.Errorf("sender RXDropped = %d, want 0", got)
	}
}

// InjectRX bounds-checks the NIC index rather than panicking.
func TestInjectRXBounds(t *testing.T) {
	h := multiNICHost(t, 2)
	pkt := &Packet{Src: Addr(10, 0, 0, 2), Dst: h.stack.IP, Proto: ProtoUDP, DstPort: 9, TTL: 32}
	for _, idx := range []int{-1, 2, 100} {
		if h.stack.InjectRX(idx, pkt) {
			t.Errorf("InjectRX(%d) accepted on a 2-NIC stack", idx)
		}
	}
}
