package netstack

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"spin/internal/dispatch"
	"spin/internal/domain"
	"spin/internal/sal"
	"spin/internal/sim"
)

// C10M hot-path behavior: RFC-correct resets, zero-window persist, bounded
// half-open state under SYN flood, and exact accounting under parallel
// setup.

// TestTCPResetForms covers both RFC 793 RST forms: a segment carrying an
// ACK is refuted with Seq = its ACK number; a segment without one (bare SYN
// to a closed port) gets Seq 0 and an ACK covering the offending segment.
func TestTCPResetForms(t *testing.T) {
	cases := []struct {
		name      string
		in        Packet
		wantFlags TCPFlags
		wantSeq   uint32
		wantAck   uint32
	}{
		{
			name:      "bare SYN to closed port",
			in:        Packet{Flags: FlagSYN, Seq: 7000, Window: 1024},
			wantFlags: FlagRST | FlagACK,
			wantSeq:   0,
			wantAck:   7001, // SYN occupies one sequence number
		},
		{
			name:      "ACK segment to closed port",
			in:        Packet{Flags: FlagACK, Seq: 7000, Ack: 4242},
			wantFlags: FlagRST,
			wantSeq:   4242,
			wantAck:   0,
		},
		{
			name:      "FIN without ACK to closed port",
			in:        Packet{Flags: FlagFIN, Seq: 9000},
			wantFlags: FlagRST | FlagACK,
			wantSeq:   0,
			wantAck:   9001,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b, cl := pair(t, sal.LanceModel)
			var got *Packet
			_, err := a.disp.Install(EvTCPArrived, func(arg, _ any) any {
				got = arg.(*Packet).Clone()
				return true // claim: keep a's TCP from processing the RST
			}, dispatch.InstallOptions{Installer: domain.Identity{Name: "proto:6:rst-capture", Trusted: true}})
			if err != nil {
				t.Fatal(err)
			}
			pkt := AllocPacket()
			pkt.CopyHeaderFrom(&tc.in)
			pkt.Src, pkt.Dst, pkt.Proto = a.stack.IP, b.stack.IP, ProtoTCP
			pkt.SrcPort, pkt.DstPort = 5555, 99 // nothing listens on 99
			if err := a.stack.SendIP(pkt); err != nil {
				t.Fatal(err)
			}
			cl.Run(sim.Time(sim.Second))
			if got == nil {
				t.Fatal("no RST came back")
			}
			if got.Flags != tc.wantFlags || got.Seq != tc.wantSeq || got.Ack != tc.wantAck {
				t.Errorf("RST = flags %v seq %d ack %d, want flags %v seq %d ack %d",
					got.Flags, got.Seq, got.Ack, tc.wantFlags, tc.wantSeq, tc.wantAck)
			}
			if st := tcpStatsOf(b.stack.TCP()); st.Resets != 1 {
				t.Errorf("Resets = %d, want 1", st.Resets)
			}
		})
	}
}

// TestTCPZeroWindowPersist: a zero-window advertisement must pause the
// sender (previously it was silently ignored), and the persist probe on the
// retransmission timer must discover the reopened window.
func TestTCPZeroWindowPersist(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	client, srv := establish(t, a, b, cl)
	var serverGot []byte
	(*srv).OnData = func(_ *Conn, d []byte) { serverGot = append(serverGot, d...) }

	// The peer advertises window 0 (a duplicate ACK carrying the closed
	// window, forged here since the in-tree receiver never closes its
	// fixed window).
	client.handle(&Packet{Flags: FlagACK, Seq: client.rcvNxt, Ack: client.sndUna, Window: 0})
	if client.sndWnd != 0 {
		t.Fatalf("sndWnd = %d after zero-window ACK, want 0", client.sndWnd)
	}

	payload := bytes.Repeat([]byte("w"), 100)
	if err := client.Send(payload); err != nil {
		t.Fatal(err)
	}
	// Nothing may leave while the window is closed...
	if got := client.sndNxt - client.sndUna; got != 0 {
		t.Fatalf("%d bytes in flight against a zero window", got)
	}
	// ...until the persist probe (on the retx timer) elicits an ACK whose
	// window has reopened, unsticking the transfer.
	cl.Run(sim.Time(60 * sim.Second))
	if !bytes.Equal(serverGot, payload) {
		t.Fatalf("server got %d bytes, want %d", len(serverGot), len(payload))
	}
	if client.ZeroWindowProbes() == 0 {
		t.Error("no persist probes recorded")
	}
}

// TestTCPSynFloodBounded: 10k SYNs to one listener must cost at most
// MaxHalfOpen compact entries — never a *Conn — with the overflow counted
// as evictions, while an established connection rides out the flood.
func TestTCPSynFloodBounded(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	client, srv := establish(t, a, b, cl)
	var serverGot []byte
	(*srv).OnData = func(_ *Conn, d []byte) { serverGot = append(serverGot, d...) }

	const flood = 10000
	syn := &Packet{} // reused: Deliver borrows, never retains
	for i := 0; i < flood; i++ {
		syn.Src = Addr(172, 16, byte(i>>8), byte(i))
		syn.SrcPort = uint16(1024 + i%50000)
		syn.Dst, syn.DstPort, syn.Proto = b.stack.IP, 80, ProtoTCP
		syn.Flags, syn.Seq, syn.Window = FlagSYN, uint32(i), 8192
		b.stack.TCP().Deliver(syn)
	}

	st := tcpStatsOf(b.stack.TCP())
	if st.HalfOpen > MaxHalfOpen {
		t.Errorf("HalfOpen = %d, exceeds bound %d", st.HalfOpen, MaxHalfOpen)
	}
	if st.HalfOpenEvicted == 0 {
		t.Error("flood past the bound evicted nothing")
	}
	if st.HalfOpen+int(st.HalfOpenEvicted) < flood {
		t.Errorf("half-open %d + evicted %d < %d SYNs", st.HalfOpen, st.HalfOpenEvicted, flood)
	}
	if got := b.stack.TCP().Conns(); got != 1 {
		t.Errorf("Conns = %d after flood, want 1 (no conn before the final ACK)", got)
	}

	// The established connection still works.
	if err := client.Send([]byte("still here")); err != nil {
		t.Fatal(err)
	}
	cl.Run(sim.Time(60 * sim.Second))
	if string(serverGot) != "still here" {
		t.Fatalf("established conn got %q through the flood", serverGot)
	}
}

// TestTCPHalfOpenBoundExact: the half-open table is bounded at exactly
// MaxHalfOpen entries (RFC 4987 §3.2). One SYN past the bound evicts the
// oldest entry overall, and an entry older than synTTL goes when the next
// SYN arrives, whether or not the table is full.
func TestTCPHalfOpenBoundExact(t *testing.T) {
	server := func(t *testing.T) (*Stack, *TCP) {
		eng := sim.NewEngine()
		d := dispatch.New(eng, &sim.SPINProfile)
		st, err := NewStack("half-open", Addr(10, 0, 0, 1), eng, &sim.SPINProfile, d)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.TCP().Listen(80, nil, func(*Conn) {}); err != nil {
			t.Fatal(err)
		}
		return st, st.TCP()
	}
	// segment sends peer i's SYN, or its final ACK.
	segment := func(st *Stack, i int, flags TCPFlags) {
		pkt := &Packet{
			Src: Addr(172, 16, byte(i>>8), byte(i)), SrcPort: uint16(1024 + i),
			Dst: st.IP, DstPort: 80, Proto: ProtoTCP, Flags: flags, Seq: 10, Window: 8192,
		}
		if flags == FlagACK {
			pkt.Seq, pkt.Ack = 11, serverISS+1
		}
		st.TCP().Deliver(pkt)
	}

	t.Run("the bound holds every SYN up to it", func(t *testing.T) {
		st, tcp := server(t)
		for i := 0; i < MaxHalfOpen; i++ {
			segment(st, i, FlagSYN)
		}
		if s := tcpStatsOf(tcp); s.HalfOpen != MaxHalfOpen || s.HalfOpenEvicted != 0 {
			t.Fatalf("%d half-open, %d evicted after %d SYNs; want %d and 0",
				s.HalfOpen, s.HalfOpenEvicted, MaxHalfOpen, MaxHalfOpen)
		}
	})

	t.Run("one SYN past it evicts the first", func(t *testing.T) {
		st, tcp := server(t)
		for i := 0; i <= MaxHalfOpen; i++ {
			segment(st, i, FlagSYN)
		}
		if s := tcpStatsOf(tcp); s.HalfOpen != MaxHalfOpen || s.HalfOpenEvicted != 1 {
			t.Fatalf("%d half-open, %d evicted after %d SYNs; want %d and 1",
				s.HalfOpen, s.HalfOpenEvicted, MaxHalfOpen+1, MaxHalfOpen)
		}
		segment(st, 0, FlagACK) // the evicted entry's final ACK
		if s := tcpStatsOf(tcp); s.Resets != 1 || s.Conns != 0 {
			t.Fatalf("first SYN's final ACK: %d resets, %d connections; want 1 and 0", s.Resets, s.Conns)
		}
		segment(st, MaxHalfOpen, FlagACK) // the newest entry's
		if s := tcpStatsOf(tcp); s.Resets != 1 || s.Conns != 1 || s.Accepted != 1 {
			t.Fatalf("last SYN's final ACK: %d resets, %d connections, %d accepted; want 1, 1, 1",
				s.Resets, s.Conns, s.Accepted)
		}
	})

	t.Run("a flood keeps the table and its queue bounded", func(t *testing.T) {
		st, tcp := server(t)
		const flood = 10 * MaxHalfOpen
		for i := 0; i < flood; i++ {
			segment(st, i, FlagSYN)
		}
		if s := tcpStatsOf(tcp); s.HalfOpen != MaxHalfOpen || s.HalfOpenEvicted != flood-MaxHalfOpen {
			t.Fatalf("%d half-open, %d evicted after %d SYNs; want %d and %d",
				s.HalfOpen, s.HalfOpenEvicted, flood, MaxHalfOpen, flood-MaxHalfOpen)
		}
		if q := len(tcp.syn.queue); q > queueBound(MaxHalfOpen) {
			t.Fatalf("%d queue slots after %d SYNs, want at most %d", q, flood, queueBound(MaxHalfOpen))
		}
	})

	t.Run("an entry past synTTL goes with the next SYN", func(t *testing.T) {
		st, tcp := server(t)
		segment(st, 0, FlagSYN)
		st.Clock().Advance(synTTL)
		segment(st, 1, FlagSYN) // entry 0 is exactly synTTL old: kept
		if s := tcpStatsOf(tcp); s.HalfOpen != 2 || s.HalfOpenEvicted != 0 {
			t.Fatalf("at synTTL: %d half-open, %d evicted; want 2 and 0", s.HalfOpen, s.HalfOpenEvicted)
		}
		st.Clock().Advance(1)
		segment(st, 2, FlagSYN) // entry 0 is one past: evicted; entry 1 kept
		if s := tcpStatsOf(tcp); s.HalfOpen != 2 || s.HalfOpenEvicted != 1 {
			t.Fatalf("past synTTL: %d half-open, %d evicted; want 2 and 1", s.HalfOpen, s.HalfOpenEvicted)
		}
		segment(st, 0, FlagACK)
		segment(st, 1, FlagACK)
		if s := tcpStatsOf(tcp); s.Resets != 1 || s.Accepted != 1 {
			t.Fatalf("%d resets, %d accepted; want the expired entry reset and the live one accepted", s.Resets, s.Accepted)
		}
	})
}

// TestTCPConnsExactUnderParallelSetup drives full server-side handshakes
// and teardowns from many goroutines at once (direct Deliver, no wire) and
// checks the table's counters stay exact. Run with -race.
func TestTCPConnsExactUnderParallelSetup(t *testing.T) {
	eng := sim.NewEngine()
	d := dispatch.New(eng, &sim.SPINProfile)
	st, err := NewStack("c10m", Addr(10, 0, 0, 1), eng, &sim.SPINProfile, d)
	if err != nil {
		t.Fatal(err)
	}
	tcp := st.TCP()
	if err := tcp.Listen(80, nil, func(*Conn) {}); err != nil {
		t.Fatal(err)
	}

	const workers, each = 8, 500
	handshake := func(w int, teardown bool) {
		pkt := &Packet{}
		for i := 0; i < each; i++ {
			src := Addr(10, 1, byte(w), byte(i))
			sport := uint16(2000 + i)
			pkt.Src, pkt.SrcPort = src, sport
			pkt.Dst, pkt.DstPort, pkt.Proto = st.IP, 80, ProtoTCP
			if !teardown {
				pkt.Flags, pkt.Seq, pkt.Ack, pkt.Window = FlagSYN, 10, 0, rcvWindow
				tcp.Deliver(pkt)
				pkt.Flags, pkt.Seq, pkt.Ack = FlagACK, 11, serverISS+1
				tcp.Deliver(pkt)
			} else {
				pkt.Flags, pkt.Seq, pkt.Ack = FlagRST, 11, 0
				tcp.Deliver(pkt)
			}
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) { defer wg.Done(); handshake(w, false) }(w)
	}
	wg.Wait()
	if got := tcp.Conns(); got != workers*each {
		t.Fatalf("Conns = %d after parallel setup, want %d", got, workers*each)
	}
	if st := tcpStatsOf(tcp); st.Accepted != workers*each {
		t.Fatalf("Accepted = %d, want %d", st.Accepted, workers*each)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) { defer wg.Done(); handshake(w, true) }(w)
	}
	wg.Wait()
	if got := tcp.Conns(); got != 0 {
		t.Fatalf("Conns = %d after parallel teardown, want 0", got)
	}
}

// TestTCPTableWalkersUnderParallelSetup: Stats and Unsettled walk the
// connection table while other goroutines insert into it, which the runtime
// kills a process for unless the walkers hold the table's lock. Run with
// -race.
func TestTCPTableWalkersUnderParallelSetup(t *testing.T) {
	eng := sim.NewEngine()
	d := dispatch.New(eng, &sim.SPINProfile)
	st, err := NewStack("walk", Addr(10, 0, 0, 1), eng, &sim.SPINProfile, d)
	if err != nil {
		t.Fatal(err)
	}
	tcp := st.TCP()
	if err := tcp.Listen(80, nil, func(*Conn) {}); err != nil {
		t.Fatal(err)
	}

	const workers, each = 4, 500
	var setup sync.WaitGroup
	for w := 0; w < workers; w++ {
		setup.Add(1)
		go func(w int) {
			defer setup.Done()
			pkt := &Packet{Dst: st.IP, DstPort: 80, Proto: ProtoTCP, Window: rcvWindow}
			for i := 0; i < each; i++ {
				pkt.Src, pkt.SrcPort = Addr(10, 1, byte(w), byte(i)), uint16(2000+i)
				pkt.Flags, pkt.Seq, pkt.Ack = FlagSYN, 10, 0
				tcp.Deliver(pkt)
				pkt.Flags, pkt.Seq, pkt.Ack = FlagACK, 11, serverISS+1
				tcp.Deliver(pkt)
			}
		}(w)
	}
	stop := make(chan struct{})
	walked := make(chan struct{})
	go func() {
		defer close(walked)
		for {
			select {
			case <-stop:
				return
			default:
				tcpStatsOf(tcp)
				tcp.Unsettled()
			}
		}
	}()
	setup.Wait()
	close(stop)
	<-walked
	if st := tcpStatsOf(tcp); st.Conns != workers*each || st.HalfOpen != 0 {
		t.Fatalf("%d connections and %d half-open entries, want %d and 0", st.Conns, st.HalfOpen, workers*each)
	}
	if queued, armed := tcp.Unsettled(); queued != 0 || armed != 0 {
		t.Fatalf("Unsettled = %d, %d on idle connections", queued, armed)
	}
}

// TestTCPConnectSkipsTakenPort: the ephemeral-port cursor coming round to a
// 4-tuple still in use must step past it, not replace the connection there.
func TestTCPConnectSkipsTakenPort(t *testing.T) {
	a, b, _ := pair(t, sal.LanceModel)
	tcp := a.stack.TCP()
	first, err := tcp.Connect(b.stack.IP, 80, nil)
	if err != nil {
		t.Fatal(err)
	}
	tcp.nextPort = first.LocalPort() - 1 // the cursor has wrapped
	second, err := tcp.Connect(b.stack.IP, 80, nil)
	if err != nil {
		t.Fatal(err)
	}
	if second.LocalPort() != first.LocalPort()+1 || tcp.Conns() != 2 {
		t.Fatalf("ports %d then %d, %d connections; want consecutive ports and 2", first.LocalPort(), second.LocalPort(), tcp.Conns())
	}
	// The same local port is free towards another remote endpoint.
	tcp.nextPort = first.LocalPort() - 1
	third, err := tcp.Connect(b.stack.IP, 81, nil)
	if err != nil {
		t.Fatal(err)
	}
	if third.LocalPort() != first.LocalPort() {
		t.Fatalf("port %d to another remote port, want %d again", third.LocalPort(), first.LocalPort())
	}
}

// TestTCPDuplicateFinalACK: retransmitted final ACKs (half-open entry
// already consumed) must reach the established connection, not trigger a
// reset.
func TestTCPDuplicateFinalACK(t *testing.T) {
	eng := sim.NewEngine()
	d := dispatch.New(eng, &sim.SPINProfile)
	st, err := NewStack("dup", Addr(10, 0, 0, 1), eng, &sim.SPINProfile, d)
	if err != nil {
		t.Fatal(err)
	}
	tcp := st.TCP()
	if err := tcp.Listen(80, nil, func(*Conn) {}); err != nil {
		t.Fatal(err)
	}
	pkt := &Packet{Src: Addr(10, 2, 0, 1), SrcPort: 4000, Dst: st.IP, DstPort: 80, Proto: ProtoTCP}
	pkt.Flags, pkt.Seq, pkt.Window = FlagSYN, 10, 1024
	tcp.Deliver(pkt)
	pkt.Flags, pkt.Seq, pkt.Ack = FlagACK, 11, serverISS+1
	tcp.Deliver(pkt)
	tcp.Deliver(pkt) // duplicate
	stt := tcpStatsOf(tcp)
	if stt.Conns != 1 || stt.Accepted != 1 || stt.Resets != 0 {
		t.Fatalf("conns=%d accepted=%d resets=%d, want 1/1/0", stt.Conns, stt.Accepted, stt.Resets)
	}
}

// Packet pool mechanics.

func TestPacketPoolRetainRelease(t *testing.T) {
	p := AllocPacket()
	p.Proto = ProtoUDP
	p.SetPayload([]byte("hello"))
	p.Retain()
	p.Release()
	if p.Proto != ProtoUDP || string(p.Payload) != "hello" {
		t.Fatal("packet recycled while a reference was live")
	}
	p.Release() // final: back to the pool

	q := AllocPacket()
	if q.Proto != 0 || q.Seq != 0 || len(q.Payload) != 0 {
		t.Fatalf("pooled packet not zeroed: %+v", q)
	}
	q.Release()

	// Non-pooled packets ignore the protocol entirely.
	lit := &Packet{Payload: []byte("x")}
	lit.Release()
	lit.Release()
	if lit.Retain() != lit || string(lit.Payload) != "x" {
		t.Fatal("Release/Retain must be no-ops on literals")
	}
}

func TestPacketOverRelease(t *testing.T) {
	// The final release zeroes the pool state before the packet returns
	// to the pool, so a stray extra Release on a stale pointer is a
	// defensive no-op — it cannot corrupt whoever holds the packet next.
	q := AllocPacket()
	q.Release()
	q.Release()
	fresh := AllocPacket()
	if fresh.Proto != 0 || len(fresh.Payload) != 0 {
		t.Fatalf("pool handed out a corrupted packet: %+v", fresh)
	}
	fresh.Release()
}

func TestPacketCloneIsIndependent(t *testing.T) {
	p := AllocPacket()
	p.Proto, p.Seq = ProtoTCP, 42
	p.SetPayload([]byte("abc"))
	q := p.Clone()
	p.Release()
	if q.Proto != ProtoTCP || q.Seq != 42 || string(q.Payload) != "abc" {
		t.Fatalf("clone lost fields: %+v", q)
	}
	q.Payload[0] = 'x'
	q.Release()
}

// A million idle connections pay for every byte of Conn, and Go rounds the
// allocation up to a size class (240, then 256). Loss recovery's state came
// out of fields that were wider than their values; what only a connection
// in trouble needs sits behind the one ooo pointer.
func TestConnSizeBudget(t *testing.T) {
	if got := unsafe.Sizeof(Conn{}); got != 240 {
		t.Errorf("Conn is %d bytes, pinned at 240 (budget 256, the next size class)", got)
	}
	if got := unsafe.Sizeof(segment{}); got != 16 {
		t.Errorf("an inflight record is %d bytes, pinned at 16", got)
	}
}

// Every segment in flight or queued is a Packet, and the payload sum the
// links share cost it 16 bytes; TTL and FragOffset, 8 and 16 bits on the
// wire, are int32 so that it still fits the 144-byte size class.
func TestPacketSizeBudget(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got > 144 {
		t.Errorf("Packet is %d bytes, budget 144", got)
	}
}

// A fleet pays a stack's fixed cost once per host, so a table sized for the
// most connections any host might hold is paid hundreds of times by hosts
// that hold a few dozen. What a new stack allocates is pinned here.
func TestIdleStackFootprint(t *testing.T) {
	const stacks, budget = 64, 16 << 10
	eng := sim.NewEngine()
	var disps [stacks]*dispatch.Dispatcher
	for i := range disps {
		disps[i] = dispatch.New(eng, &sim.SPINProfile)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, d := range disps {
		if _, err := NewStack("idle", Addr(10, 0, 0, byte(i)), eng, &sim.SPINProfile, d); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / stacks; per > budget {
		t.Errorf("NewStack allocates %d bytes, budget %d", per, budget)
	}
}
