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
	a.nic.InjectLoss(0.4, 13)
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
	if a.nic.Dropped() == 0 {
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
		FragID: id, FragOffset: off, MoreFrags: more, Payload: p, TTL: 32,
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

// sameShardIDs returns n fragment IDs for src that all hash to one shard, so
// shard-local bounds can be tested deterministically.
func sameShardIDs(src IPAddr, n int) []uint32 {
	ids := make([]uint32, 0, n)
	want := -1
	for id := uint32(1); len(ids) < n; id++ {
		sh := (fragKey{src: src, id: id}).shard()
		if want == -1 {
			want = sh
		}
		if sh == want {
			ids = append(ids, id)
		}
	}
	return ids
}

// Regression (reassembly leak): partial datagrams whose tail never arrives
// are swept by the virtual-time TTL — Pending returns to 0 instead of
// pinning a buffer per lost fragment forever.
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
	r.sweep(sim.Time(ReasmTTL)) // exactly at the TTL: not yet expired
	if r.Pending() != stale {
		t.Fatalf("sweep at TTL evicted early: pending = %d", r.Pending())
	}
	r.sweep(sim.Time(ReasmTTL) + 1)
	if r.Pending() != 0 {
		t.Errorf("pending = %d after TTL sweep, want 0", r.Pending())
	}
	if r.Evicted() != stale {
		t.Errorf("evicted = %d, want %d", r.Evicted(), stale)
	}
}

// The lazy per-shard sweep: a new datagram arriving in a shard evicts that
// shard's expired partials without a global sweep.
func TestReassemblyLazySweepOnNewKey(t *testing.T) {
	r := newReassembly()
	src := Addr(10, 0, 0, 2)
	ids := sameShardIDs(src, 2)
	if whole, _ := r.reassemble(markedFrag(src, ids[0], 0, true, 100), sim.Time(0)); whole != nil {
		t.Fatal("partial completed")
	}
	late := sim.Time(ReasmTTL) + sim.Time(sim.Millisecond)
	if whole, _ := r.reassemble(markedFrag(src, ids[1], 0, true, 100), late); whole != nil {
		t.Fatal("partial completed")
	}
	if r.Pending() != 1 {
		t.Errorf("pending = %d, want 1 (stale partial lazily evicted)", r.Pending())
	}
	if r.Evicted() != 1 {
		t.Errorf("evicted = %d, want 1", r.Evicted())
	}
}

// The per-shard cap: pending partials in one shard never exceed
// maxPendingPerShard; the oldest is evicted to admit a new datagram.
func TestReassemblyCapEvictsOldest(t *testing.T) {
	r := newReassembly()
	src := Addr(10, 0, 0, 4)
	ids := sameShardIDs(src, maxPendingPerShard+1)
	for i, id := range ids {
		// Strictly increasing arrival times, all within the TTL of each
		// other, so only the cap (not the TTL) can evict.
		at := sim.Time(i) * sim.Time(sim.Microsecond)
		if whole, _ := r.reassemble(markedFrag(src, id, 0, true, 8), at); whole != nil {
			t.Fatal("partial completed")
		}
	}
	if r.Pending() != maxPendingPerShard {
		t.Errorf("pending = %d, want cap %d", r.Pending(), maxPendingPerShard)
	}
	if r.Evicted() != 1 {
		t.Errorf("evicted = %d, want 1", r.Evicted())
	}
	// The evicted one is the oldest: its key is gone from the shard.
	sh := &r.shards[(fragKey{src: src, id: ids[0]}).shard()]
	sh.mu.Lock()
	_, oldestAlive := sh.parts[fragKey{src: src, id: ids[0]}]
	_, newestAlive := sh.parts[fragKey{src: src, id: ids[len(ids)-1]}]
	sh.mu.Unlock()
	if oldestAlive {
		t.Error("oldest partial survived the cap eviction")
	}
	if !newestAlive {
		t.Error("newest partial was evicted instead of the oldest")
	}
}

// End-to-end leak bound: after fragment loss leaves partial datagrams
// pending, a virtual-time TTL sweep returns Pending to 0 and counts the
// evictions in net_reassembly_evicted.
func TestStackReassemblyPendingReturnsToZero(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	a.nic.InjectLoss(0.4, 13)
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
	// Let the TTL elapse in virtual time, then sweep.
	b.eng.After(ReasmTTL+sim.Millisecond, func() {
		b.stack.reasm.sweep(b.stack.clock.Now())
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
