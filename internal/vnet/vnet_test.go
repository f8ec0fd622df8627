package vnet

import (
	"strings"
	"testing"

	"spin/internal/netstack"
	"spin/internal/sim"
)

// edge is a plain low-latency link for tests.
var edge = LinkModel{Latency: 100 * sim.Microsecond}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder(1).Build(); err == nil {
		t.Error("empty topology built")
	}
	if _, err := NewBuilder(1).Machine("a", 0).Machine("a", 0).Build(); err == nil {
		t.Error("duplicate node built")
	}
	if _, err := NewBuilder(1).Machine("a", 0).Link("a", "nope", edge).Build(); err == nil {
		t.Error("link to unknown node built")
	}
	if _, err := NewBuilder(1).Machine("a", 0).Machine("b", 0).
		Link("a", "b", edge).Link("a", "b", edge).Build(); err == nil {
		t.Error("duplicate link name built")
	}
}

func TestPingThroughSwitch(t *testing.T) {
	in, err := NewBuilder(42).
		Machine("a", 0).Machine("b", 0).Switch("s0").
		Link("a", "s0", edge).Link("b", "s0", edge).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	var rtt sim.Duration
	a := in.Machine("a")
	if err := a.Stack.Ping(in.IP("b"), 1, 64, func(d sim.Duration) { rtt = d }); err != nil {
		t.Fatal(err)
	}
	in.Run(0)
	if rtt == 0 {
		t.Fatal("no ping reply through switch")
	}
	// Two hops each way: at least 4x the one-way link latency.
	if rtt < 4*edge.Latency {
		t.Errorf("rtt %v < 4x link latency", rtt)
	}
	fwd, noRoute, ttl := in.Switch("s0").Stats()
	if fwd != 2 {
		t.Errorf("switch forwarded %d, want 2 (request+reply)", fwd)
	}
	if noRoute != 0 || ttl != 0 {
		t.Errorf("switch drops: noRoute=%d ttlExpired=%d", noRoute, ttl)
	}
	ab, ba := in.Link("a~s0").Digests()
	if ab == 0 || ba == 0 {
		t.Error("link carried traffic but digests are zero")
	}
	if !strings.Contains(in.Describe(), "switch  s0") {
		t.Error("Describe omits the switch")
	}
}

func TestDumbbellTCP(t *testing.T) {
	// 64 KB across a 10 Mb/s bottleneck: the transfer must complete and
	// the bottleneck's serialization must dominate the virtual time.
	bottleneck := LinkModel{Latency: 1 * sim.Millisecond, BandwidthBps: 10_000_000}
	in, err := Dumbbell(2, 2, edge, bottleneck, 7)
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunConversations(in, []Conversation{
		{From: "l0", To: "r0", Bytes: 64 << 10},
	}, sim.Time(60*sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Complete || results[0].Corrupt {
		t.Fatalf("transfer failed: %+v", results[0])
	}
	// 64 KB at 10 Mb/s is ~52 ms of pure serialization; the run cannot be
	// faster than that.
	if now := in.Machine("l0").Clock.Now(); now < sim.Time(50*sim.Millisecond) {
		t.Errorf("finished at %v, faster than the bottleneck allows", now)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// Two frames back to back through a slow link: the second's arrival is
	// pushed out by the first's link-serialization time.
	slow := LinkModel{Latency: 0, BandwidthBps: 8_000_000} // 1 byte/µs
	in, err := NewBuilder(3).
		Machine("a", 0).Machine("b", 0).
		Link("a", "b", slow).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	a, b := in.Machine("a"), in.Machine("b")
	got := 0
	b.Stack.UDP().Bind(9, nil, func(*netstack.Packet) { got++ })
	for i := 0; i < 2; i++ {
		if err := a.Stack.UDP().Send(100, in.IP("b"), 9, make([]byte, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	in.Run(0)
	if got != 2 {
		t.Fatalf("delivered %d datagrams, want 2", got)
	}
	// Each ~1042-byte frame takes ~1042 µs on the link; two serialized
	// frames mean b's clock passed 2 ms.
	if now := b.Clock.Now(); now < sim.Time(2*sim.Millisecond) {
		t.Errorf("b finished at %v, too fast for 8 Mb/s serialization", now)
	}
}

func TestSeededLoss(t *testing.T) {
	lossy := LinkModel{Latency: 10 * sim.Microsecond, Loss: 0.3}
	in, err := NewBuilder(99).
		Machine("a", 0).Machine("b", 0).
		Link("a", "b", lossy).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	a, b := in.Machine("a"), in.Machine("b")
	got := 0
	b.Stack.UDP().Bind(9, nil, func(*netstack.Packet) { got++ })
	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Stack.UDP().Send(100, in.IP("b"), 9, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		in.Run(0)
	}
	ab, _ := in.Link("a~b").Stats()
	if ab.Lost == 0 {
		t.Fatal("30% loss model dropped nothing")
	}
	if int(ab.Delivered) != got {
		t.Errorf("delivered %d frames but %d datagrams arrived", ab.Delivered, got)
	}
	if got+int(ab.Lost) != n {
		t.Errorf("delivered %d + lost %d != sent %d", got, ab.Lost, n)
	}
	// 30% of 200: well inside [30, 90] unless the PRNG is broken.
	if ab.Lost < 30 || ab.Lost > 90 {
		t.Errorf("lost %d of %d at p=0.3, implausible", ab.Lost, n)
	}
}

func TestDuplicateDelivery(t *testing.T) {
	dup := LinkModel{Latency: 10 * sim.Microsecond, Duplicate: 0.5}
	in, err := NewBuilder(5).
		Machine("a", 0).Machine("b", 0).
		Link("a", "b", dup).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	a, b := in.Machine("a"), in.Machine("b")
	got := 0
	b.Stack.UDP().Bind(9, nil, func(*netstack.Packet) { got++ })
	const n = 100
	for i := 0; i < n; i++ {
		if err := a.Stack.UDP().Send(100, in.IP("b"), 9, make([]byte, 32)); err != nil {
			t.Fatal(err)
		}
		in.Run(0)
	}
	ab, _ := in.Link("a~b").Stats()
	if ab.Duplicated == 0 {
		t.Fatal("50% duplication duplicated nothing")
	}
	if got != n+int(ab.Duplicated) {
		t.Errorf("got %d datagrams, want %d sent + %d dup", got, n, ab.Duplicated)
	}
}

func TestPartitionRecovery(t *testing.T) {
	// Kill the only path mid-transfer; TCP retransmission must finish the
	// transfer after the link heals.
	in, err := NewBuilder(11).
		Machine("a", 0).Machine("b", 0).Switch("s0").
		Link("a", "s0", edge).Link("b", "s0", edge).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := in.FlapLink("a~s0", sim.Time(2*sim.Millisecond), sim.Time(500*sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	results, err := RunConversations(in, []Conversation{
		{From: "a", To: "b", Bytes: 32 << 10},
	}, sim.Time(60*sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if !r.Complete || r.Corrupt {
		t.Fatalf("transfer did not survive the partition: %+v", r)
	}
	if r.Retransmits == 0 {
		t.Error("partition caused no retransmissions — flap had no effect")
	}
	ab, _ := in.Link("a~s0").Stats()
	if ab.Down == 0 {
		t.Error("no frames were dropped while the link was down")
	}
	if in.Link("a~s0").IsDown() {
		t.Error("link still down after the flap window")
	}
}

// One hook both drops and delays: the first 3 frames on a~b never arrive,
// and every later one lands 5ms after it left.
func TestHookDropsAndDelays(t *testing.T) {
	in, err := NewBuilder(13).
		Machine("a", 0).Machine("b", 0).
		Link("a", "b", edge).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	in.Link("a~b").AddHook(func(ev *FrameEvent) Verdict {
		if seen++; seen <= 3 {
			return Drop
		}
		ev.ExtraDelay += 5 * sim.Millisecond
		return Pass
	})
	a, b := in.Machine("a"), in.Machine("b")
	got := 0
	b.Stack.UDP().Bind(9, nil, func(*netstack.Packet) { got++ })
	const n = 10
	for i := 0; i < n; i++ {
		if err := a.Stack.UDP().Send(100, in.IP("b"), 9, make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
		in.Run(0)
	}
	if got != n-3 {
		t.Errorf("delivered %d, want %d (3 hook drops)", got, n-3)
	}
	ab, _ := in.Link("a~b").Stats()
	if ab.HookDropped != 3 {
		t.Errorf("hook drops = %d, want 3", ab.HookDropped)
	}
	// Delays stretched flight time: b's arrivals ran ~5ms after a's sends,
	// so b's clock passed 5ms while a sent only tiny frames.
	if now := b.Clock.Now(); now < sim.Time(5*sim.Millisecond) {
		t.Errorf("b clock %v: hook delay did not stretch flight time", now)
	}
}

func TestFatTreeCrossEdge(t *testing.T) {
	in, err := FatTree(2, 2, 2, edge, edge, 21)
	if err != nil {
		t.Fatal(err)
	}
	// h0 (edge e0) to h3 (edge e1): must transit e0 -> a core -> e1.
	results, err := RunConversations(in, []Conversation{
		{From: "h0", To: "h3", Bytes: 8 << 10},
	}, sim.Time(30*sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Complete || results[0].Corrupt {
		t.Fatalf("cross-edge transfer failed: %+v", results[0])
	}
	// Exactly one core carried the traffic (deterministic BFS tie-break).
	c0fwd, _, _ := in.Switch("c0").Stats()
	c1fwd, _, _ := in.Switch("c1").Stats()
	if c0fwd == 0 && c1fwd == 0 {
		t.Error("no core switch forwarded anything")
	}
	if c0fwd != 0 && c1fwd != 0 {
		t.Error("both cores carried the flow; BFS should pick one")
	}
}
