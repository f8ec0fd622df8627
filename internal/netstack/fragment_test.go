package netstack

import (
	"bytes"
	"testing"
	"testing/quick"

	"spin/internal/sal"
	"spin/internal/sim"
)

func TestUDPFragmentsOverEthernet(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	var got []byte
	_ = b.stack.UDP().Bind(9, InKernelDelivery, func(p *Packet) { got = p.Payload })
	payload := bytes.Repeat([]byte{0xAB}, 8132) // > 1500 MTU: must fragment
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	_ = a.stack.UDP().Send(1, Addr(10, 0, 0, 2), 9, payload)
	cl.Run(0)
	if !bytes.Equal(got, payload) {
		t.Fatalf("reassembled %d bytes, want %d", len(got), len(payload))
	}
	sent, _, _, _ := a.nic.Stats()
	if sent < 6 {
		t.Errorf("only %d frames sent for an 8132B datagram over 1500 MTU", sent)
	}
	if b.stack.reasm.Pending() != 0 {
		t.Errorf("reassembly buffers leaked: %d", b.stack.reasm.Pending())
	}
}

func TestNoFragmentationUnderMTU(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	var got *Packet
	_ = b.stack.UDP().Bind(9, InKernelDelivery, func(p *Packet) { got = p })
	_ = a.stack.UDP().Send(1, Addr(10, 0, 0, 2), 9, make([]byte, 1000))
	cl.Run(0)
	if got == nil {
		t.Fatal("no delivery")
	}
	sent, _, _, _ := a.nic.Stats()
	if sent != 1 {
		t.Errorf("%d frames for a sub-MTU datagram", sent)
	}
}

func TestATMNoFragmentationFor8K(t *testing.T) {
	// ATM's 9180-byte MTU carries the 8132-byte test packets whole (the
	// Table 5 configuration).
	a, b, cl := pair(t, sal.ForeModel)
	var deliveries int
	_ = b.stack.UDP().Bind(9, InKernelDelivery, func(p *Packet) { deliveries++ })
	_ = a.stack.UDP().Send(1, Addr(10, 0, 0, 2), 9, make([]byte, 8132))
	cl.Run(0)
	sent, _, _, _ := a.nic.Stats()
	if sent != 1 {
		t.Errorf("ATM fragmented an 8132B datagram into %d frames", sent)
	}
	if deliveries != 1 {
		t.Errorf("deliveries = %d", deliveries)
	}
}

func TestFragmentLossLosesWholeDatagram(t *testing.T) {
	// UDP has no recovery: if any fragment is lost the datagram never
	// reassembles, and the partial buffer stays pending (bounded by the
	// test; real stacks would time it out).
	a, b, cl := pair(t, sal.LanceModel)
	dropRX(b, 0.4, 13)
	delivered := 0
	_ = b.stack.UDP().Bind(9, InKernelDelivery, func(p *Packet) { delivered++ })
	const n = 16
	for i := 0; i < n; i++ {
		_ = a.stack.UDP().Send(1, Addr(10, 0, 0, 2), 9, make([]byte, 4000))
	}
	cl.Run(0)
	if delivered == n {
		t.Error("no datagram lost despite fragment loss")
	}
	if rxDrops(b) == 0 {
		t.Error("injection did not drop")
	}
}

func TestInterleavedFragmentStreams(t *testing.T) {
	// Fragments of datagrams from two senders interleave at the receiver;
	// reassembly must keep them separate (keyed by source and id).
	recv := newNetHost(t, "recv", Addr(10, 0, 0, 1), sal.LanceModel)
	s1 := newNetHost(t, "s1", Addr(10, 0, 0, 2), sal.LanceModel)
	s2 := newNetHost(t, "s2", Addr(10, 0, 0, 3), sal.LanceModel)
	nic2 := sal.NewNIC(sal.LanceModel, recv.eng, recv.ic, sal.VecNIC1)
	if err := sal.Connect(s1.nic, recv.nic); err != nil {
		t.Fatal(err)
	}
	if err := sal.Connect(s2.nic, nic2); err != nil {
		t.Fatal(err)
	}
	recv.stack.Attach(nic2)

	var got [][]byte
	_ = recv.stack.UDP().Bind(9, InKernelDelivery, func(p *Packet) {
		got = append(got, append([]byte(nil), p.Payload...))
	})
	p1 := bytes.Repeat([]byte{1}, 5000)
	p2 := bytes.Repeat([]byte{2}, 5000)
	_ = s1.stack.UDP().Send(1, Addr(10, 0, 0, 1), 9, p1)
	_ = s2.stack.UDP().Send(1, Addr(10, 0, 0, 1), 9, p2)
	sim.NewCluster(recv.eng, s1.eng, s2.eng).Run(0)
	if len(got) != 2 {
		t.Fatalf("delivered %d datagrams", len(got))
	}
	seen := map[byte]bool{}
	for _, d := range got {
		if len(d) != 5000 {
			t.Fatalf("datagram length %d", len(d))
		}
		for _, v := range d {
			if v != d[0] {
				t.Fatal("interleaved fragments mixed payloads")
			}
		}
		seen[d[0]] = true
	}
	if !seen[1] || !seen[2] {
		t.Error("missing one sender's datagram")
	}
}

// markedFrag builds one fragment of datagram (src, id) whose payload is all
// marker bytes, so an uncopied (zero-filled) hole in a reassembled datagram
// is visible.
func markedFrag(src IPAddr, id uint32, off int, more bool, size int) *Packet {
	p := make([]byte, size)
	for i := range p {
		p[i] = fragMarker
	}
	return &Packet{
		Src: src, Dst: Addr(10, 0, 0, 1), Proto: ProtoUDP, DstPort: 9,
		FragID: id, FragOffset: int32(off), MoreFrags: more, Payload: p, TTL: 32,
	}
}

// Regression (overlap double-count): a duplicated 400-byte head plus a final
// fragment at offset 500 delivers 900 payload bytes for a 600-byte datagram —
// the pre-fix reassembler counted bytes received and completed it with a
// zero-filled hole at [400, 500). Completion requires contiguous coverage.
func TestDuplicateFragmentsDoNotFakeCompleteness(t *testing.T) {
	r := newReassembly()
	now := sim.Time(0)
	src := Addr(10, 0, 0, 2)
	if whole, _ := r.reassemble(markedFrag(src, 7, 0, true, 400), now); whole != nil {
		t.Fatal("completed after first fragment")
	}
	if whole, _ := r.reassemble(markedFrag(src, 7, 0, true, 400), now); whole != nil {
		t.Fatal("completed after a duplicate of the first fragment")
	}
	if whole, _ := r.reassemble(markedFrag(src, 7, 500, false, 100), now); whole != nil {
		t.Fatal("completed a 600-byte datagram with a hole at [400, 500)")
	}
	if r.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", r.Pending())
	}
	// Filling the hole completes it, and every byte was actually copied.
	whole, _ := r.reassemble(markedFrag(src, 7, 400, true, 100), now)
	if whole == nil {
		t.Fatal("contiguously covered datagram did not complete")
	}
	if len(whole.Payload) != 600 {
		t.Fatalf("reassembled %d bytes, want 600", len(whole.Payload))
	}
	for i, v := range whole.Payload {
		if v != fragMarker {
			t.Fatalf("uncopied byte %#x at offset %d", v, i)
		}
	}
	if r.Pending() != 0 {
		t.Errorf("pending = %d after completion", r.Pending())
	}
}

// Overlapping (not just duplicate) fragments must also complete exactly once
// with every byte copied.
func TestOverlappingFragmentsCompleteOnce(t *testing.T) {
	r := newReassembly()
	now := sim.Time(0)
	src := Addr(10, 0, 0, 3)
	completions := 0
	for _, f := range []*Packet{
		markedFrag(src, 8, 0, true, 400),
		markedFrag(src, 8, 300, true, 200), // overlaps [300, 400)
		markedFrag(src, 8, 0, true, 400),   // full duplicate
		markedFrag(src, 8, 500, false, 100),
	} {
		if whole, _ := r.reassemble(f, now); whole != nil {
			completions++
			if len(whole.Payload) != 600 {
				t.Fatalf("reassembled %d bytes, want 600", len(whole.Payload))
			}
			for i, v := range whole.Payload {
				if v != fragMarker {
					t.Fatalf("uncopied byte %#x at offset %d", v, i)
				}
			}
		}
	}
	if completions != 1 {
		t.Errorf("datagram completed %d times, want exactly once", completions)
	}
}

// Regression (reassembly leak): partial datagrams whose tail never arrives
// are evicted by the virtual-time TTL once a later datagram starts —
// Pending returns to 0 instead of pinning a buffer per lost fragment
// forever. The later datagrams here are whole in one fragment, so they
// complete on arrival and leave nothing pending themselves.
func TestReassemblyTTLSweepEvictsStalePartials(t *testing.T) {
	r := newReassembly()
	const stale = 5
	for i := 0; i < stale; i++ {
		src := Addr(10, 0, 0, byte(i))
		if whole, _ := r.reassemble(markedFrag(src, 1, 0, true, 100), sim.Time(0)); whole != nil {
			t.Fatal("partial completed")
		}
	}
	if r.Pending() != stale {
		t.Fatalf("pending = %d, want %d", r.Pending(), stale)
	}
	later := func(id uint32, at sim.Time) {
		whole, _ := r.reassemble(markedFrag(Addr(10, 0, 1, 1), id, 0, false, 100), at)
		if whole == nil {
			t.Fatal("single-fragment datagram did not complete")
		}
		whole.Release()
	}
	later(1, sim.Time(ReasmTTL)) // exactly at the TTL: not yet expired
	if r.Pending() != stale || r.Evicted() != 0 {
		t.Fatalf("datagram at TTL evicted early: pending = %d, evicted = %d", r.Pending(), r.Evicted())
	}
	later(2, sim.Time(ReasmTTL)+1)
	if r.Pending() != 0 {
		t.Errorf("pending = %d after the TTL, want 0", r.Pending())
	}
	if r.Evicted() != stale {
		t.Errorf("evicted = %d, want %d", r.Evicted(), stale)
	}
}

// The lazy sweep: a new datagram arriving evicts the partials past the TTL
// without a global sweep. At exactly ReasmTTL a partial is not expired; one
// past it, it is.
func TestReassemblyLazySweepOnNewKey(t *testing.T) {
	r := newReassembly()
	src := Addr(10, 0, 0, 2)
	for _, f := range []struct {
		id          uint32
		at          sim.Time
		wantPending int
		wantEvicted int64
	}{
		{1, 0, 1, 0},
		{2, sim.Time(ReasmTTL), 2, 0},     // id 1 is exactly ReasmTTL old: kept
		{3, sim.Time(ReasmTTL) + 1, 2, 1}, // id 1 is one past: evicted; id 2 kept
	} {
		if whole, _ := r.reassemble(markedFrag(src, f.id, 0, true, 100), f.at); whole != nil {
			t.Fatal("partial completed")
		}
		if r.Pending() != f.wantPending || r.Evicted() != f.wantEvicted {
			t.Fatalf("after id %d at %d: pending = %d, evicted = %d; want %d, %d",
				f.id, f.at, r.Pending(), r.Evicted(), f.wantPending, f.wantEvicted)
		}
	}
	if _, ok := r.parts.get(fragKey{src: src, id: 1}); ok {
		t.Error("the expired partial survived")
	}
}

// The cap: pending partials from every source together never exceed
// maxPending; each new datagram past it evicts the oldest.
func TestReassemblyCapEvictsOldest(t *testing.T) {
	r := newReassembly()
	key := func(i int) fragKey { return fragKey{src: Addr(10, 0, 0, byte(i%4)), id: uint32(i)} }
	const extra = 3
	for i := 0; i < maxPending+extra; i++ {
		// Strictly increasing arrival times, all within the TTL of each
		// other, so only the cap (not the TTL) can evict.
		at := sim.Time(i) * sim.Time(sim.Microsecond)
		k := key(i)
		if whole, _ := r.reassemble(markedFrag(k.src, k.id, 0, true, 8), at); whole != nil {
			t.Fatal("partial completed")
		}
		if want := min(i+1, maxPending); r.Pending() != want {
			t.Fatalf("after %d datagrams: pending = %d, want %d", i+1, r.Pending(), want)
		}
	}
	if r.Evicted() != extra {
		t.Errorf("evicted = %d, want %d", r.Evicted(), extra)
	}
	// The evicted ones are the oldest, in arrival order.
	for i := 0; i < maxPending+extra; i++ {
		if _, alive := r.parts.get(key(i)); alive != (i >= extra) {
			t.Errorf("datagram %d alive = %v, want %v", i, alive, i >= extra)
		}
	}
}

// End-to-end leak bound: after fragment loss leaves partial datagrams
// pending and the TTL elapses in virtual time, the next fragmented datagram
// evicts them all — Pending returns to 0 and net_reassembly_evicted counts
// every one.
func TestStackReassemblyPendingReturnsToZero(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	dropRX(b, 0.4, 13)
	_ = b.stack.UDP().Bind(9, InKernelDelivery, func(*Packet) {})
	const n = 16
	for i := 0; i < n; i++ {
		_ = a.stack.UDP().Send(1, Addr(10, 0, 0, 2), 9, make([]byte, 4000))
	}
	cl.Run(0)
	pending := counter(b.stack, "net_reassembly_pending")
	if pending == 0 {
		t.Fatal("fragment loss left nothing pending; loss seed no longer bites")
	}
	// Let the TTL elapse in virtual time, then send one more datagram
	// over a lossless wire.
	b.eng.After(ReasmTTL+sim.Millisecond, func() {
		b.disp.InjectorInstalled().Disarm("net.rx")
		_ = a.stack.UDP().Send(1, Addr(10, 0, 0, 2), 9, make([]byte, 4000))
	})
	cl.Run(0)
	after, evicted := counter(b.stack, "net_reassembly_pending"), counter(b.stack, "net_reassembly_evicted")
	if after != 0 {
		t.Errorf("pending = %d after TTL sweep, want 0", after)
	}
	if evicted != pending {
		t.Errorf("evicted = %d, want %d", evicted, pending)
	}
}

// Property: any payload size round-trips through fragmentation and
// reassembly byte-for-byte.
func TestFragmentationRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(seed uint16) bool {
		size := int(seed)%20000 + 1
		a, b, cl := pair(t, sal.LanceModel)
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i ^ int(seed))
		}
		var got []byte
		_ = b.stack.UDP().Bind(9, InKernelDelivery, func(p *Packet) { got = p.Payload })
		_ = a.stack.UDP().Send(1, Addr(10, 0, 0, 2), 9, payload)
		cl.Run(0)
		return bytes.Equal(got, payload)
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
