package netstack

// Concurrency torture and counter-exactness tests for the parallel-safe
// netstack, in the style of internal/dispatch/race_test.go: run under -race.
// All injection goes through InjectRX against unconnected NICs, so every
// handler reached from an RX worker is a pure consumer — the transmit paths
// (echo replies, TCP resets) fail at the disconnected driver before they
// could touch the single-threaded simulation engine.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spin/internal/sal"
	"spin/internal/trace"
)

// parallelHost builds one machine with n attached, unconnected NICs — the
// fixture for worker-mode RX tests.
func parallelHost(t *testing.T, n int) *host {
	t.Helper()
	h := newNetHost(t, "parallel", Addr(10, 0, 0, 1), sal.LanceModel)
	for i := 1; i < n; i++ {
		// Inject-only NICs never take interrupts, so sharing a vector is
		// harmless.
		h.stack.Attach(sal.NewNIC(sal.LanceModel, h.eng, h.ic, sal.VecNIC1))
	}
	return h
}

// inject delivers pkt to the queue, retrying through transient backpressure,
// and counts every attempt.
func inject(s *Stack, nic int, pkt *Packet, attempts *atomic.Int64) {
	for {
		attempts.Add(1)
		if s.InjectRX(nic, pkt) {
			return
		}
		runtime.Gosched()
	}
}

// drainAll empties every RX queue on the simulation goroutine (after workers
// stop) so queue contents can be accounted exactly.
func drainAll(s *Stack) {
	for _, q := range *s.rxqs.Load() {
		for s.drainRX(q, DefaultRXQueueDepth) > 0 {
		}
	}
}

// Torture: concurrent Bind/Unbind/EphemeralPort/AddRoute/Listen/Unlisten
// against parallel RX workers pushing UDP datagrams, fragment streams, and
// stray TCP segments up the graph must be race-free, and the atomic counters
// must balance exactly: accepted + dropped = attempts, received = accepted.
func TestConcurrentBindRaiseReassembleTorture(t *testing.T) {
	const nics = 4
	h := parallelHost(t, nics)
	s := h.stack
	sink, err := s.UDP().Sink(9, InKernelDelivery)
	if err != nil {
		t.Fatal(err)
	}
	s.StartRXWorkers()

	const (
		injectors   = 4
		perInjector = 2000 // divisible by 4: the case split below is exact
		mutIters    = 1500
	)
	var attempts, accepted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < injectors; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perInjector; i++ {
				var pkt *Packet
				switch i % 4 {
				case 0: // datagram to the stable sink binding
					pkt = &Packet{Src: Addr(10, 0, 0, 2), Dst: s.IP, Proto: ProtoUDP,
						SrcPort: 1, DstPort: 9, Payload: make([]byte, 16), TTL: 32}
				case 1: // datagram to a port a mutator churns
					pkt = &Packet{Src: Addr(10, 0, 0, 2), Dst: s.IP, Proto: ProtoUDP,
						SrcPort: 1, DstPort: uint16(100 + g), Payload: make([]byte, 16), TTL: 32}
				case 2: // lone fragment that never completes (exercises eviction)
					pkt = &Packet{Src: Addr(10, 0, 0, byte(g+2)), Dst: s.IP, Proto: ProtoUDP,
						SrcPort: 1, DstPort: 99, FragID: uint32(i + 1), FragOffset: 0,
						MoreFrags: true, Payload: make([]byte, 64), TTL: 32}
				case 3: // stray TCP segment: no conn, not a SYN -> reset path
					pkt = &Packet{Src: Addr(10, 0, 0, 3), Dst: s.IP, Proto: ProtoTCP,
						SrcPort: uint16(g + 1), DstPort: 81, Flags: FlagACK, Seq: 1, TTL: 32}
				}
				inject(s, (g+i)%nics, pkt, &attempts)
				accepted.Add(1)
			}
		}()
	}
	// Mutators churn every COW table while deliveries are in flight.
	for m := 0; m < injectors; m++ {
		m := m
		wg.Add(1)
		go func() {
			defer wg.Done()
			port := uint16(100 + m)
			for i := 0; i < mutIters; i++ {
				if err := s.UDP().Bind(port, nil, func(*Packet) {}); err != nil {
					t.Error(err)
					return
				}
				s.UDP().Unbind(port)
				p, err := s.UDP().EphemeralPort()
				if err != nil {
					t.Error(err)
					return
				}
				if err := s.UDP().Bind(p, nil, nil); err != nil {
					t.Error(err)
					return
				}
				s.UDP().Unbind(p)
				s.AddRoute(Addr(10, 1, byte(m), byte(i)), h.nic)
				if err := s.TCP().Listen(uint16(200+m), nil, func(*Conn) {}); err != nil {
					t.Error(err)
					return
				}
				s.TCP().Unlisten(uint16(200 + m))
			}
		}()
	}
	wg.Wait()
	s.StopRXWorkers()
	drainAll(s)

	acc, dropped := counter(s, "net_rx_queue_accepted"), counter(s, "net_rx_queue_dropped")
	if acc != accepted.Load() {
		t.Errorf("queue accepted = %d, injectors saw %d", acc, accepted.Load())
	}
	if acc+dropped != attempts.Load() {
		t.Errorf("accepted %d + dropped %d != attempts %d", acc, dropped, attempts.Load())
	}
	received, _ := s.Stats()
	if received != acc {
		t.Errorf("received %d packets, accepted %d — drained packets lost", received, acc)
	}
	const sinkWant = injectors * perInjector / 4
	if got := sink.Packets(); got != sinkWant {
		t.Errorf("sink delivered %d datagrams, want exactly %d", got, sinkWant)
	}
	if pending := counter(s, "net_reassembly_pending"); pending > reasmShards*maxPendingPerShard {
		t.Errorf("reassembly pending %d exceeds cap %d", pending, reasmShards*maxPendingPerShard)
	}
	if s.TCP().Conns() != 0 {
		t.Errorf("stray segments created %d connections", s.TCP().Conns())
	}
}

// Counter exactness (satellite of the COW refactor): Stack.Stats, the RX
// queue counters and SinkStats totals are exact when deliveries arrive from parallel workers —
// atomics must not drop counts.
func TestStatsExactUnderParallelDelivery(t *testing.T) {
	const nics = 2
	h := parallelHost(t, nics)
	s := h.stack
	const payload = 32
	sink, err := s.UDP().Sink(9, InKernelDelivery)
	if err != nil {
		t.Fatal(err)
	}
	s.StartRXWorkers()
	defer s.StopRXWorkers()

	const goroutines, per = 4, 4000
	var attempts atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The receive path never writes to a plain UDP packet, so one
			// packet per producer can ride every injection.
			pkt := &Packet{Src: Addr(10, 0, 0, 2), Dst: s.IP, Proto: ProtoUDP,
				SrcPort: uint16(g + 1), DstPort: 9, Payload: make([]byte, payload), TTL: 32}
			for i := 0; i < per; i++ {
				inject(s, (g+i)%nics, pkt, &attempts)
			}
		}()
	}
	wg.Wait()
	const total = int64(goroutines * per)
	deadline := time.Now().Add(30 * time.Second)
	for sink.Packets() < total {
		if time.Now().After(deadline) {
			t.Fatalf("sink drained %d of %d datagrams before deadline", sink.Packets(), total)
		}
		time.Sleep(time.Millisecond)
	}
	if got := sink.Packets(); got != total {
		t.Errorf("sink.Packets = %d, want exactly %d", got, total)
	}
	if got := sink.Bytes(); got != total*payload {
		t.Errorf("sink.Bytes = %d, want exactly %d", got, total*payload)
	}
	received, _ := s.Stats()
	if received != total {
		t.Errorf("Stats received = %d, want exactly %d", received, total)
	}
	acc, dropped := counter(s, "net_rx_queue_accepted"), counter(s, "net_rx_queue_dropped")
	if acc != total {
		t.Errorf("net_rx_queue_accepted = %d, want %d", acc, total)
	}
	if acc+dropped != attempts.Load() {
		t.Errorf("accepted %d + dropped %d != attempts %d", acc, dropped, attempts.Load())
	}
}

// Regression (UDP Bind/deliver race): concurrent Bind/Unbind of the very port
// packets are being delivered to must be race-free — deliver loads one port
// table snapshot and sees either the old or the new binding, never a torn
// map. The pre-COW table was a plain map mutated under deliveries.
func TestConcurrentBindUnbindWithDeliveries(t *testing.T) {
	h := parallelHost(t, 1)
	s := h.stack
	s.StartRXWorkers()

	var delivered, attempts atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pkt := &Packet{Src: Addr(10, 0, 0, 2), Dst: s.IP, Proto: ProtoUDP,
			SrcPort: 1, DstPort: 7, Payload: make([]byte, 8), TTL: 32}
		for i := 0; i < 20000; i++ {
			inject(s, 0, pkt, &attempts)
		}
	}()
	for b := 0; b < 2; b++ {
		b := b
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One binder churns the delivery port itself, the other churns a
			// neighbor (forcing table copies that must not tear deliveries).
			port := uint16(7 + b)
			for i := 0; i < 4000; i++ {
				err := s.UDP().Bind(port, nil, func(*Packet) { delivered.Add(1) })
				if err != nil {
					t.Errorf("bind %d: %v", port, err)
					return
				}
				s.UDP().Unbind(port)
			}
		}()
	}
	wg.Wait()
	s.StopRXWorkers()
	drainAll(s)
	// Delivery count depends on interleaving; the invariants are no race, no
	// panic, and exact packet accounting.
	received, _ := s.Stats()
	acc, dropped := counter(s, "net_rx_queue_accepted"), counter(s, "net_rx_queue_dropped")
	if received != acc || acc+dropped != attempts.Load() {
		t.Errorf("received=%d accepted=%d dropped=%d attempts=%d", received, acc, dropped, attempts.Load())
	}
	if delivered.Load() > received {
		t.Errorf("delivered %d > received %d", delivered.Load(), received)
	}
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
	h := parallelHost(t, 2)
	pkt := &Packet{Src: Addr(10, 0, 0, 2), Dst: h.stack.IP, Proto: ProtoUDP, DstPort: 9, TTL: 32}
	for _, idx := range []int{-1, 2, 100} {
		if h.stack.InjectRX(idx, pkt) {
			t.Errorf("InjectRX(%d) accepted on a 2-NIC stack", idx)
		}
	}
}

// Workers stop cleanly and can be restarted; packets queued across the
// restart are not lost.
func TestRXWorkerRestart(t *testing.T) {
	h := parallelHost(t, 1)
	s := h.stack
	sink, err := s.UDP().Sink(9, InKernelDelivery)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		s.StartRXWorkers()
		var attempts atomic.Int64
		pkt := &Packet{Src: Addr(10, 0, 0, 2), Dst: s.IP, Proto: ProtoUDP,
			SrcPort: 1, DstPort: 9, Payload: make([]byte, 8), TTL: 32}
		for i := 0; i < 500; i++ {
			inject(s, 0, pkt, &attempts)
		}
		s.StopRXWorkers()
		drainAll(s) // pick up anything queued when the workers exited
		if got, want := sink.Packets(), int64(500*round); got != want {
			t.Fatalf("round %d: sink = %d, want %d", round, got, want)
		}
	}
}
