package netstack

import (
	"bytes"
	"testing"

	"spin/internal/faultinject"
	"spin/internal/sal"
	"spin/internal/sim"
)

// Fault injection: TCP must deliver all data, in order, exactly once,
// across lossy links — the retransmission and cumulative-ACK machinery
// under stress.

func lossyPair(t *testing.T, rate float64, seed uint64) (*host, *host, *sim.Cluster) {
	t.Helper()
	a, b, cl := pair(t, sal.LanceModel)
	dropRX(b, rate, seed)
	dropRX(a, rate, seed+1)
	return a, b, cl
}

// dropRX makes h's stack drop each frame it receives with probability p at
// its "net.rx" fault-injection site, deterministically from seed. A rule
// reads p <= 0 as every hit, so a lossless case arms nothing.
func dropRX(h *host, p float64, seed uint64) {
	inj := faultinject.New(seed, h.eng.Clock)
	inj.Arm(faultinject.Rule{Site: "net.rx", Kind: faultinject.KindDrop, Probability: p})
	h.disp.SetInjector(inj)
}

// rxDrops reports the frames h's stack dropped at "net.rx".
func rxDrops(h *host) int64 { return h.disp.InjectorInstalled().FiredAt("net.rx") }

func TestTCPSurvivesModerateLoss(t *testing.T) {
	a, b, cl := lossyPair(t, 0.05, 42)
	const total = 32 * 1024
	var received []byte
	_ = b.stack.TCP().Listen(80, nil, func(c *Conn) {
		on(c).received = func(_ *Conn, d []byte) { received = append(received, d...) }
	})
	conn, _ := a.stack.TCP().Connect(Addr(10, 0, 0, 2), 80, nil)
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	on(conn).connected = func(c *Conn) { _ = c.Send(payload) }
	cl.RunUntil(func() bool { return len(received) >= total }, sim.Time(10*60*sim.Second))
	if len(received) != total {
		t.Fatalf("received %d of %d bytes (drops a=%d b=%d, retransmits=%d)",
			len(received), total, rxDrops(a), rxDrops(b), conn.Retransmits())
	}
	for i := range received {
		if received[i] != byte(i*7) {
			t.Fatalf("corruption at byte %d", i)
		}
	}
	if conn.Retransmits() == 0 && rxDrops(b) > 0 {
		t.Error("frames dropped but no retransmissions recorded")
	}
}

func TestTCPSurvivesHandshakeLoss(t *testing.T) {
	// High loss: even the SYN/SYN-ACK may be dropped repeatedly; the
	// retransmission timer must eventually establish the connection.
	a, b, cl := lossyPair(t, 0.3, 7)
	established := false
	_ = b.stack.TCP().Listen(80, nil, func(c *Conn) {})
	conn, _ := a.stack.TCP().Connect(Addr(10, 0, 0, 2), 80, nil)
	on(conn).connected = func(*Conn) { established = true }
	ok := cl.RunUntil(func() bool { return established }, sim.Time(10*60*sim.Second))
	if !ok {
		t.Fatalf("handshake never completed under loss (drops a=%d b=%d)",
			rxDrops(a), rxDrops(b))
	}
}

func TestTCPNoDuplicateDeliveryUnderLoss(t *testing.T) {
	// Losing ACKs forces retransmission of segments the receiver already
	// has; the receiver must not deliver duplicates.
	a, b, cl := lossyPair(t, 0.15, 99)
	const chunks, chunkSize = 32, 512
	var received []byte
	_ = b.stack.TCP().Listen(80, nil, func(c *Conn) {
		on(c).received = func(_ *Conn, d []byte) { received = append(received, d...) }
	})
	conn, _ := a.stack.TCP().Connect(Addr(10, 0, 0, 2), 80, nil)
	on(conn).connected = func(c *Conn) {
		for i := 0; i < chunks; i++ {
			buf := make([]byte, chunkSize)
			for j := range buf {
				buf[j] = byte(i)
			}
			_ = c.Send(buf)
		}
	}
	cl.RunUntil(func() bool { return len(received) >= chunks*chunkSize }, sim.Time(10*60*sim.Second))
	if len(received) != chunks*chunkSize {
		t.Fatalf("received %d, want %d", len(received), chunks*chunkSize)
	}
	for i, v := range received {
		if v != byte(i/chunkSize) {
			t.Fatalf("out-of-order or duplicated data at offset %d", i)
		}
	}
}

func TestTCPCongestionWindowCollapsesOnLoss(t *testing.T) {
	// After a retransmission timeout, cwnd returns to 1 and ssthresh
	// halves (slow start restart).
	a, b, cl := pair(t, sal.LanceModel)
	_ = b.stack.TCP().Listen(80, nil, func(c *Conn) {})
	conn, _ := a.stack.TCP().Connect(Addr(10, 0, 0, 2), 80, nil)
	established := false
	on(conn).connected = func(*Conn) { established = true }
	cl.RunUntil(func() bool { return established }, sim.Time(60*sim.Second))

	// Grow the window with a clean transfer.
	_ = conn.Send(make([]byte, 16*1024))
	cl.Run(0)
	grown := conn.cwnd
	if grown <= 1 {
		t.Fatalf("cwnd did not grow: %d", grown)
	}
	// Now lose everything for a while: send into a black hole.
	dropRX(b, 1, 5)
	_ = conn.Send(make([]byte, 4*1024))
	// Let at least one retransmission timeout fire.
	deadline := a.eng.Now().Add(sim.Duration(2 * retxTimeout))
	cl.Run(sim.Time(deadline))
	if conn.cwnd != 1 {
		t.Errorf("cwnd after timeout = %d, want 1", conn.cwnd)
	}
	if conn.ssthresh >= grown {
		t.Errorf("ssthresh = %d, want < %d", conn.ssthresh, grown)
	}
	if conn.Retransmits() == 0 {
		t.Error("no retransmissions under total loss")
	}
}

func TestUDPIsLossyByDesign(t *testing.T) {
	// Sanity check the injection itself: UDP offers no recovery, so a
	// lossy link loses datagrams.
	a, b, cl := lossyPair(t, 0.5, 11)
	sink, _ := b.stack.UDP().Sink(9, InKernelDelivery)
	const n = 64
	for i := 0; i < n; i++ {
		_ = a.stack.UDP().Send(1, Addr(10, 0, 0, 2), 9, make([]byte, 64))
	}
	cl.Run(0)
	if sink.Packets() == n {
		t.Error("no datagrams lost at 50% injected loss")
	}
	if sink.Packets() == 0 {
		t.Error("all datagrams lost at 50% injected loss")
	}
	if rxDrops(b)+sink.Packets() != n {
		t.Errorf("drops (%d) + delivered (%d) != sent (%d)", rxDrops(b), sink.Packets(), n)
	}
}

// dropWire drops the frames its filter picks and passes the rest on.
type dropWire struct {
	sal.Wire
	drop func(*Packet) bool
}

func (w *dropWire) Transmit(f sal.NetFrame, departed sim.Time) {
	if p, ok := f.Payload.(*Packet); ok && w.drop(p) {
		sal.ReleaseFrame(f)
		return
	}
	w.Wire.Transmit(f, departed)
}

// A FIN that arrives ahead of a lost data segment must wait for it: every
// HTTP response sends its FIN right behind its last segment, so on a lossy
// link this is the common case. The receiver used to take the FIN's
// sequence number as RCV.NXT and report a clean close with the data
// missing, and the sender, its FIN acknowledged past the hole, dropped the
// bytes as delivered.
func TestFinOvertakesLostData(t *testing.T) {
	a, _, cl, client, server := establishedPair(t)
	var got []byte
	peerClosed := false
	on(server).received = func(_ *Conn, d []byte) { got = append(got, d...) }
	on(server).closed = func(*Conn) { peerClosed = true }
	dropped := 0
	a.nic.AttachWire(&dropWire{Wire: a.nic.Wire(), drop: func(p *Packet) bool {
		if len(p.Payload) > 0 && dropped == 0 {
			dropped++
			return true
		}
		return false
	}})
	payload := bytes.Repeat([]byte("spin"), 250)
	if err := client.Send(payload); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	cl.Run(sim.Time(60 * sim.Second))
	if dropped != 1 {
		t.Fatalf("dropped %d data segments, want the one", dropped)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("receiver got %d of %d bytes (peer close reported: %v, sender retransmits: %d, sender state %v)",
			len(got), len(payload), peerClosed, client.Retransmits(), client.State())
	}
	if !peerClosed {
		t.Error("receiver never saw the close")
	}
	if client.Retransmits() == 0 {
		t.Error("sender never retransmitted the lost segment")
	}
	if client.State() != StateFinWait2 || server.State() != StateCloseWait {
		t.Errorf("client %v, server %v, want FIN_WAIT_2 and CLOSE_WAIT", client.State(), server.State())
	}
}

// The out-of-order queue keeps each segment as the packet it arrived in: one
// live packet more for each, released when RCV.NXT reaches it, or when the
// connection goes with the hole still open.
func TestOutOfOrderQueueReleasesPackets(t *testing.T) {
	queue := []step{
		{at: 1 * ms, in: in(data(S, S)), out: []seg{sack(0, blk{S, 2 * S})}},
		{at: 2 * ms, in: in(data(3*S, S)), out: []seg{sack(0, blk{3 * S, 4 * S}, blk{S, 2 * S})}},
		{at: 3 * ms, in: in(data(3*S, S)), note: "a duplicate is not kept again",
			out: []seg{sack(0, blk{3 * S, 4 * S}, blk{3 * S, 4 * S}, blk{S, 2 * S})}},
	}
	wantLive := func(want int64) func(*testing.T, *scriptRig) {
		return func(t *testing.T, r *scriptRig) {
			t.Helper()
			if got := LivePackets(); got != want {
				t.Errorf("%d packets live, want %d", got, want)
			}
		}
	}
	t.Run("drained", func(t *testing.T) {
		r := sackServerRig(t)
		live := LivePackets()
		r.run(queue)
		r.run([]step{
			{at: 4 * ms, in: in(data(0, S)), out: []seg{sack(2*S, blk{3 * S, 4 * S})}, check: wantLive(live + 1)},
			{at: 5 * ms, in: in(data(2*S, S)), out: []seg{ack(4 * S)}, check: both(wantLive(live), wantReceived(4*S))},
		})
	})
	t.Run("torn-down", func(t *testing.T) {
		r := sackServerRig(t)
		live := LivePackets()
		r.run(queue)
		wantLive(live+2)(t, r)
		r.run([]step{{at: 4 * ms, in: in(seg{flags: FlagRST, seq: 0}), check: both(wantState(StateClosed), wantLive(live))}})
	})
}
