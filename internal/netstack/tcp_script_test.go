package netstack

import (
	"errors"
	"fmt"
	"testing"

	"spin/internal/dispatch"
	"spin/internal/sal"
	"spin/internal/sim"
)

// A packetdrill-style oracle for one TCP endpoint. A script injects
// segments and application calls at stated virtual times and lists the
// segments the endpoint must emit, and when; anything else it emits, at any
// other time, fails the row. Nothing runs but the endpoint under test: the
// peer is the script, the wire a recorder, and every cost the rig controls
// is zero, so a timer set at t for d fires at exactly t+d. The one cost it
// cannot zero is SendIP's per-byte checksum, which sum() spells out where a
// timer is armed behind a transmission.
//
// Sequence numbers are relative, packetdrill's way: 0 is the first data byte
// of either direction, so a SYN is seq -1.

const (
	scriptPeerISS = 5000
	scriptDUTISS  = 100 // Connect's fixed client ISS
	scriptSrvISS  = serverISS

	ms = sim.Millisecond
	us = sim.Microsecond
	// S is the full-sized segment every script writes.
	S = DefaultMSS
)

// sum is the checksum cost SendIP charges for n payload bytes, the only CPU
// time that passes inside a script step.
func sum(n int) sim.Duration { return sim.Duration(n) * ChecksumPerByte }

// seg is one segment in script notation.
type seg struct {
	flags    TCPFlags
	seq, ack int // relative; ack is ignored without FlagACK
	n        int // payload bytes
	win      int // injected segments only; 0 advertises rcvWindow
	// sackOK is the SACK-permitted option, and wscale the window-scale
	// option with its shift (RFC 7323). Every SYN the endpoint sends offers
	// SACK and a shift of rcvShift, which the recorder checks itself, so a
	// script writes that SYN without them.
	sackOK bool
	wscale bool
	shift  int
	// sack are the SACK blocks, relative like ack; the first empty one ends
	// the list.
	sack [MaxSACKBlocks]blk
}

// blk is a SACK block in script notation, [start, end).
type blk struct{ start, end int }

func (s seg) String() string {
	str := fmt.Sprintf("%v seq %d ack %d len %d", s.flags, s.seq, s.ack, s.n)
	if s.sackOK {
		str += " sackOK"
	}
	if s.wscale {
		str += fmt.Sprintf(" wscale %d", s.shift)
	}
	for _, b := range s.sack {
		if b != (blk{}) {
			str += fmt.Sprintf(" sack %d-%d", b.start, b.end)
		}
	}
	return str
}

func data(seq, n int) seg { return seg{flags: FlagACK, seq: seq, n: n} }
func ack(n int) seg       { return seg{flags: FlagACK, ack: n} }

// sack is an ACK of n carrying blocks, each given as start and end.
func sack(n int, blocks ...blk) seg {
	s := ack(n)
	copy(s.sack[:], blocks)
	return s
}

// step is one line of a script: at virtual time at, do one thing (or, with
// none set, let the timers due at exactly that instant fire) and expect
// exactly out.
type step struct {
	at    sim.Duration
	in    *seg // a segment arrives
	write int  // the application writes this many full segments
	full  bool // the application writes one more, which the send buffer must refuse
	close bool // the application closes
	out   []seg
	// check looks at the connection after the step.
	check func(*testing.T, *scriptRig)
	note  string
}

func in(s seg) *seg { return &s }

type emission struct {
	at sim.Time
	seg
	corrupt bool
	noOffer bool // a SYN without SACK-permitted or window scale rcvShift
}

// scriptRig is the endpoint under test and the recorder around it.
type scriptRig struct {
	t      *testing.T
	eng    *sim.Engine
	st     *Stack
	conn   *Conn
	client bool // the endpoint dialled (its ISS is scriptDUTISS)

	cause   sim.Time // the step or timer event now running
	emitted []emission

	advertised int    // the window field of the segment emitted last
	written    int    // application bytes written so far
	received   []byte // what OnData delivered
	misorder   bool   // OnData delivered a byte out of place
	closes     int    // OnClose calls
}

// streamByte is the byte at offset off of either direction's stream.
func streamByte(off int) byte { return byte(off*7 + 3) }

func streamBytes(off, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = streamByte(off + i)
	}
	return b
}

func (r *scriptRig) dutISS() uint32 {
	if r.client {
		return scriptDUTISS
	}
	return scriptSrvISS
}

// Transmit records what the endpoint sends, tagged with the step that
// caused it.
func (r *scriptRig) Transmit(f sal.NetFrame, _ sim.Time) {
	p := f.Payload.(*Packet)
	e := emission{at: r.cause, seg: seg{
		flags: p.Flags,
		seq:   int(int32(p.Seq - (r.dutISS() + 1))),
		n:     len(p.Payload),
	}}
	if p.Flags&FlagACK != 0 {
		e.ack = int(int32(p.Ack - (scriptPeerISS + 1)))
	}
	e.sackOK, e.wscale, e.shift = p.SACKPermitted, p.WScaleOK, int(p.WScale)
	if p.Flags == FlagSYN {
		e.sackOK, e.wscale, e.shift = false, false, 0
		e.noOffer = !p.SACKPermitted || !p.WScaleOK || p.WScale != rcvShift
	}
	r.advertised = p.Window
	for i, b := range p.SACKBlocks() {
		e.sack[i] = blk{int(int32(b.Start - (scriptPeerISS + 1))), int(int32(b.End - (scriptPeerISS + 1)))}
	}
	for i, b := range p.Payload {
		if b != streamByte(e.seq+i) {
			e.corrupt = true
		}
	}
	r.emitted = append(r.emitted, e)
	p.Release()
}

func newScriptRig(t *testing.T, client bool) *scriptRig {
	t.Helper()
	r := &scriptRig{t: t, eng: sim.NewEngine(), client: client}
	prof := &sim.Profile{Name: "free"}
	nic := sal.NewNIC(sal.NICModel{Name: "recorder", WireRate: 1_000_000_000},
		r.eng, sal.NewInterruptController(r.eng, prof), sal.VecNIC0)
	nic.AttachWire(r)
	st, err := NewStack("dut", Addr(10, 0, 0, 1), r.eng, prof, dispatch.New(r.eng, prof))
	if err != nil {
		t.Fatal(err)
	}
	st.Attach(nic)
	r.st = st
	return r
}

func (r *scriptRig) adopt(c *Conn) {
	r.conn = c
	c.OnData = func(_ *Conn, b []byte) {
		for i, v := range b {
			if v != streamByte(len(r.received)+i) {
				r.misorder = true
			}
		}
		r.received = append(r.received, b...)
	}
	c.OnClose = func(*Conn) { r.closes++ }
}

// dial starts an active open at time 0 and leaves the endpoint in SYN_SENT,
// its SYN recorded.
func dialRig(t *testing.T) *scriptRig {
	t.Helper()
	r := newScriptRig(t, true)
	c, err := r.st.TCP().Connect(Addr(10, 0, 0, 2), 80, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.adopt(c)
	r.expect(0, "connect", []seg{{flags: FlagSYN, seq: -1}})
	return r
}

// clientRig is an endpoint that dialled and completed the handshake at
// time 0: the sender of the sender-side tables. Its peer does not offer
// SACK.
func clientRig(t *testing.T) *scriptRig { return dialedRig(t, false) }

// sackClientRig is clientRig with a peer whose SYN|ACK permits SACK.
func sackClientRig(t *testing.T) *scriptRig { return dialedRig(t, true) }

func dialedRig(t *testing.T, sackOK bool) *scriptRig {
	t.Helper()
	r := dialRig(t)
	r.run([]step{{in: in(seg{flags: FlagSYN | FlagACK, seq: -1, ack: 0, sackOK: sackOK}), out: []seg{ack(0)}}})
	if r.conn.State() != StateEstablished {
		t.Fatalf("handshake left the client in %v", r.conn.State())
	}
	return r
}

// serverRig is an endpoint that accepted a connection at time 0: the
// receiver of the receiver-side tables. Its peer does not offer SACK, so
// neither does it.
func serverRig(t *testing.T) *scriptRig { return acceptedRig(t, false) }

// sackServerRig is serverRig with a peer whose SYN permits SACK.
func sackServerRig(t *testing.T) *scriptRig { return acceptedRig(t, true) }

func acceptedRig(t *testing.T, sackOK bool) *scriptRig {
	t.Helper()
	r := newScriptRig(t, false)
	if err := r.st.TCP().Listen(80, nil, r.adopt); err != nil {
		t.Fatal(err)
	}
	r.run([]step{
		{in: in(seg{flags: FlagSYN, seq: -1, sackOK: sackOK}), out: []seg{{flags: FlagSYN | FlagACK, seq: -1, ack: 0, sackOK: sackOK}}},
		{in: in(ack(0))},
	})
	if r.conn == nil || r.conn.State() != StateEstablished {
		t.Fatal("handshake did not produce an established server connection")
	}
	return r
}

// window gives the sender a congestion window to work with, as a transfer
// that had been running for a while would have.
func (r *scriptRig) window(cwnd, ssthresh uint16) *scriptRig {
	r.conn.cwnd, r.conn.ssthresh = cwnd, ssthresh
	return r
}

// inject delivers one scripted segment from the peer.
func (r *scriptRig) inject(s seg) {
	p := &Packet{
		Src: Addr(10, 0, 0, 2), Dst: r.st.IP, Proto: ProtoTCP, TTL: 32,
		SrcPort: 4000, DstPort: 80,
		Flags: s.flags, Seq: uint32(s.seq) + scriptPeerISS + 1, Window: rcvWindow,
		Payload: streamBytes(s.seq, s.n),
	}
	if r.client {
		p.SrcPort, p.DstPort = 80, r.conn.LocalPort()
	}
	if s.flags&FlagACK != 0 {
		p.Ack = uint32(s.ack) + r.dutISS() + 1
	}
	if s.win != 0 {
		p.Window = s.win
	}
	p.SACKPermitted, p.WScaleOK, p.WScale = s.sackOK, s.wscale, uint8(s.shift)
	for _, b := range s.sack {
		if b != (blk{}) {
			p.SACK[p.NumSACK] = SACKBlock{uint32(b.start) + r.dutISS() + 1, uint32(b.end) + r.dutISS() + 1}
			p.NumSACK++
		}
	}
	r.st.TCP().Deliver(p)
}

// runEvents fires the endpoint's timers up to t, or strictly before it.
func (r *scriptRig) runEvents(t sim.Time, through bool) {
	for {
		at, ok := r.eng.NextEventTime()
		if !ok || at > t || at == t && !through {
			return
		}
		r.cause = at
		r.eng.Step()
	}
}

// expect compares what was emitted since the last call with want, all of it
// caused at exactly at.
func (r *scriptRig) expect(at sim.Time, what string, want []seg) {
	r.t.Helper()
	got := r.emitted
	r.emitted = nil
	ok := len(got) == len(want)
	for i := 0; ok && i < len(got); i++ {
		ok = got[i].seg == want[i] && got[i].at == at && !got[i].corrupt && !got[i].noOffer
	}
	if ok {
		return
	}
	r.t.Errorf("%s at %v: emitted", what, sim.Duration(at))
	for _, e := range got {
		note := ""
		if e.corrupt {
			note = " (payload is not the stream's bytes at that offset)"
		}
		if e.noOffer {
			note = " (a SYN that does not offer SACK and a window shift of rcvShift)"
		}
		r.t.Errorf("    %v at %v%s", e.seg, sim.Duration(e.at), note)
	}
	r.t.Errorf("  want")
	for _, s := range want {
		r.t.Errorf("    %v at %v", s, sim.Duration(at))
	}
}

func (r *scriptRig) run(steps []step) {
	r.t.Helper()
	for i, s := range steps {
		at := sim.Time(s.at)
		what := fmt.Sprintf("step %d", i)
		if s.note != "" {
			what += " (" + s.note + ")"
		}
		r.runEvents(at, false)
		r.expect(at, what+": before it", nil)
		if now := r.eng.Now(); now > at {
			r.t.Fatalf("%s: clock already at %v, past %v", what, sim.Duration(now), s.at)
		}
		r.cause = at
		r.eng.Clock.AdvanceTo(at)
		switch {
		case s.in != nil:
			r.inject(*s.in)
		case s.write > 0:
			for k := 0; k < s.write; k++ {
				if err := r.conn.Send(streamBytes(r.written, S)); err != nil {
					r.t.Fatalf("%s: %v", what, err)
				}
				r.written += S
			}
		case s.full:
			before := r.conn.Buffered()
			if err := r.conn.Send(streamBytes(r.written, S)); !errors.Is(err, ErrSendBufFull) {
				r.t.Fatalf("%s: a write past the send buffer's bound returned %v, want ErrSendBufFull", what, err)
			}
			if got := r.conn.Buffered(); got != before {
				r.t.Errorf("%s: a refused write left %d bytes buffered, was %d", what, got, before)
			}
		case s.close:
			if err := r.conn.Close(); err != nil {
				r.t.Fatalf("%s: %v", what, err)
			}
		default:
			r.runEvents(at, true)
		}
		r.expect(at, what, s.out)
		if s.check != nil {
			s.check(r.t, r)
		}
		if r.misorder {
			r.t.Fatalf("%s: OnData delivered bytes out of place", what)
		}
	}
}

func wantState(want TCPState) func(*testing.T, *scriptRig) {
	return func(t *testing.T, r *scriptRig) {
		t.Helper()
		if got := r.conn.State(); got != want {
			t.Errorf("state %v, want %v", got, want)
		}
	}
}

func wantCwnd(cwnd int) func(*testing.T, *scriptRig) {
	return func(t *testing.T, r *scriptRig) {
		t.Helper()
		if got := int(r.conn.cwnd); got != cwnd {
			t.Errorf("cwnd %d, want %d", got, cwnd)
		}
	}
}

func wantReceived(n int) func(*testing.T, *scriptRig) {
	return func(t *testing.T, r *scriptRig) {
		t.Helper()
		if len(r.received) != n {
			t.Errorf("OnData has delivered %d bytes, want %d", len(r.received), n)
		}
	}
}

// wantAdvertised checks the window field of the segment emitted last.
func wantAdvertised(win int) func(*testing.T, *scriptRig) {
	return func(t *testing.T, r *scriptRig) {
		t.Helper()
		if r.advertised != win {
			t.Errorf("advertised window field %d, want %d", r.advertised, win)
		}
	}
}

// both runs two checks.
func both(a, b func(*testing.T, *scriptRig)) func(*testing.T, *scriptRig) {
	return func(t *testing.T, r *scriptRig) {
		t.Helper()
		a(t, r)
		b(t, r)
	}
}

func TestTCPScript(t *testing.T) {
	// RFC 5681 §3.2, fast retransmit and fast recovery; RFC 6582 §3.2, what a
	// partial and a full acknowledgment do inside it.
	t.Run("rfc5681-3.2/fast-retransmit-and-recovery", func(t *testing.T) {
		clientRig(t).window(6, 64).run([]step{
			{at: 1 * ms, write: 8, out: []seg{data(0, S), data(S, S), data(2*S, S), data(3*S, S), data(4*S, S), data(5*S, S)}},
			{at: 5 * ms, in: in(ack(0)), note: "first duplicate"},
			{at: 5*ms + 100*us, in: in(ack(0)), note: "second duplicate"},
			{at: 5*ms + 200*us, in: in(ack(0)), note: "third duplicate: retransmit SND.UNA now",
				out: []seg{data(0, S)},
				check: func(t *testing.T, r *scriptRig) {
					if got := int(r.conn.ssthresh); got != 3 {
						t.Errorf("ssthresh %d, want half the flight of 6", got)
					}
				}},
			{at: 5*ms + 300*us, in: in(ack(0)), note: "fourth duplicate inflates the window by one segment",
				out: []seg{data(6*S, S)}},
			{at: 5*ms + 400*us, in: in(ack(0)), note: "fifth", out: []seg{data(7*S, S)}},
			{at: 9 * ms, in: in(ack(2 * S)), note: "partial ACK: the next hole goes out and recovery continues",
				out: []seg{data(2*S, S)},
				check: func(t *testing.T, r *scriptRig) {
					if int(r.conn.cwnd) <= int(r.conn.ssthresh) {
						t.Errorf("cwnd %d has already deflated to ssthresh %d", r.conn.cwnd, r.conn.ssthresh)
					}
				}},
			{at: 10 * ms, in: in(ack(2 * S)), note: "a duplicate inside recovery retransmits nothing"},
			{at: 13 * ms, in: in(ack(6 * S)), note: "full ACK: everything sent before the loss was noticed",
				check: wantCwnd(3)},
		})
	})

	// RFC 6582's rule carried over to the timeout: once the RTO has resent
	// the head, each partial ACK uncovers one more hole and that hole is
	// resent at once, not after another timeout.
	t.Run("rfc6582/partial-ack-after-timeout", func(t *testing.T) {
		rto := 1*ms + sum(S) + 200*ms
		clientRig(t).window(4, 64).run([]step{
			{at: 1 * ms, write: 4, out: []seg{data(0, S), data(S, S), data(2*S, S), data(3*S, S)}},
			{at: rto, out: []seg{data(0, S)}, check: wantCwnd(1)},
			{at: 210 * ms, in: in(ack(S)), note: "partial", out: []seg{data(S, S)}},
			{at: 215 * ms, in: in(ack(3 * S)), note: "partial, two segments on", out: []seg{data(3*S, S)}},
			{at: 220 * ms, in: in(ack(4 * S)), note: "full"},
			{at: 2000 * ms, note: "and nothing is left to time out"},
		})
	})

	// RFC 793 §3.9 "segment arrives", RFC 5681 §4.2: data ahead of RCV.NXT
	// is kept and answered with an immediate duplicate ACK; the segment
	// that fills the hole is answered with one ACK for everything.
	t.Run("rfc5681-4.2/out-of-order-queue", func(t *testing.T) {
		serverRig(t).run([]step{
			{at: 1 * ms, in: in(data(S, S)), out: []seg{ack(0)}, check: wantReceived(0)},
			{at: 1*ms + 100*us, in: in(data(2*S, S)), out: []seg{ack(0)}, check: wantReceived(0)},
			{at: 1*ms + 200*us, in: in(data(0, S)), out: []seg{ack(3 * S)}, check: wantReceived(3 * S)},
			{at: 2 * ms, in: in(data(S, S)), note: "a duplicate of delivered data is acknowledged and dropped",
				out: []seg{ack(3 * S)}, check: wantReceived(3 * S)},
			{at: 3 * ms, in: in(data(3*S+500, S)), note: "ahead", out: []seg{ack(3 * S)}},
			{at: 3*ms + 100*us, in: in(data(3*S, S)), note: "overlaps what is queued: each byte is delivered once",
				out: []seg{ack(4*S + 500)}, check: wantReceived(4*S + 500)},
			{at: 4 * ms, in: in(data(4*S+500+rcvWindow, 100)), note: "beyond the advertised window: not kept",
				out: []seg{ack(4*S + 500)}},
			{at: 4*ms + 100*us, in: in(data(4*S+500, rcvWindow)), note: "a window's worth in order, the stray's place still empty after it",
				out: []seg{ack(4*S + 500 + rcvWindow)}, check: wantReceived(4*S + 500 + rcvWindow)},
		})
	})

	// RFC 793 §3.9, eighth step: a FIN is processed in sequence like any
	// other octet. One that overtakes lost data waits for it.
	t.Run("rfc793-3.9/fin-in-sequence", func(t *testing.T) {
		fin := func(seq int) seg { return seg{flags: FlagFIN | FlagACK, seq: seq} }
		r := serverRig(t)
		r.run([]step{
			{at: 1 * ms, in: in(fin(S)), note: "FIN ahead of a lost segment",
				out: []seg{ack(0)}, check: both(wantState(StateEstablished), wantReceived(0))},
			{at: 201 * ms, in: in(data(0, S)), note: "the retransmission arrives: data, then the FIN behind it",
				out: []seg{ack(S), ack(S + 1)}, check: both(wantState(StateCloseWait), wantReceived(S))},
			{at: 401 * ms, in: in(fin(S)), note: "a retransmitted FIN is acknowledged again and reported once",
				out: []seg{ack(S + 1)}, check: wantState(StateCloseWait)},
		})
		if r.closes != 1 {
			t.Errorf("OnClose ran %d times, want once", r.closes)
		}
	})

	// RFC 793 §3.5: CLOSE sends one FIN, behind the data queued before it.
	t.Run("rfc793-3.5/close-sends-one-fin", func(t *testing.T) {
		clientRig(t).run([]step{
			{at: 1 * ms, write: 1, out: []seg{data(0, S)}},
			{at: 1*ms + sum(S), close: true, out: []seg{{flags: FlagFIN | FlagACK, seq: S}}},
			{at: 5 * ms, in: in(ack(S + 1)), check: wantState(StateFinWait2)},
			{at: 1000 * ms, note: "nothing left to resend"},
		})
	})

	// RFC 6298. The floor and the initial value are both 200 ms here.
	t.Run("rfc6298-5/backoff-doubles", func(t *testing.T) {
		t1 := 1*ms + sum(S) + 200*ms
		t2 := t1 + sum(S) + 400*ms
		t3 := t2 + sum(S) + 800*ms
		clientRig(t).run([]step{
			{at: 1 * ms, write: 1, out: []seg{data(0, S)}},
			{at: t1, out: []seg{data(0, S)}},
			{at: t2, out: []seg{data(0, S)}},
			{at: t3, out: []seg{data(0, S)}},
		})
	})
	t.Run("rfc6298-5.3/ack-of-new-data-restarts-the-timer", func(t *testing.T) {
		// The ACK at 151 ms is also the first RTT sample, R = 150 ms:
		// SRTT = R, RTTVAR = R/2, RTO = SRTT + 4 RTTVAR = 450 ms.
		clientRig(t).window(2, 64).run([]step{
			{at: 1 * ms, write: 2, out: []seg{data(0, S), data(S, S)}},
			{at: 151 * ms, in: in(ack(S))},
			{at: 601 * ms, note: "RTO from the ACK, not 200 ms from the first send", out: []seg{data(S, S)}},
		})
	})
	t.Run("rfc6298-3/karn-no-sample-from-a-retransmission", func(t *testing.T) {
		// The ACK at 391 ms may answer the original (390 ms) or the
		// retransmission (190 ms); neither is taken, and until a clean
		// sample exists the backed-off RTO stays in force (§5.7).
		t1 := 1*ms + sum(S) + 200*ms
		clientRig(t).run([]step{
			{at: 1 * ms, write: 1, out: []seg{data(0, S)}},
			{at: t1, out: []seg{data(0, S)}},
			{at: 391 * ms, in: in(ack(S))},
			{at: 391 * ms, write: 1, out: []seg{data(S, S)}},
			{at: 391*ms + sum(S) + 400*ms, out: []seg{data(S, S)}},
		})
	})
	t.Run("rfc6298-2/rtt-above-the-initial-rto", func(t *testing.T) {
		// A 150 ms path. The SYN and nothing else is resent: its SYN-ACK is
		// no sample (Karn), the first data segment runs on the backed-off
		// 400 ms, and its ACK gives R = 300 ms, RTO = 900 ms.
		dialRig(t).run([]step{
			{at: 200 * ms, out: []seg{{flags: FlagSYN, seq: -1}}},
			{at: 300 * ms, in: in(seg{flags: FlagSYN | FlagACK, seq: -1, ack: 0}), out: []seg{ack(0)}},
			{at: 300 * ms, write: 1, out: []seg{data(0, S)}},
			{at: 600 * ms, in: in(ack(S))},
			{at: 600 * ms, write: 1, out: []seg{data(S, S)}},
			{at: 900 * ms, in: in(ack(2 * S))},
			{at: 900 * ms, write: 1, out: []seg{data(2*S, S)}},
			{at: 1200 * ms, in: in(ack(3 * S))},
			{at: 5000 * ms, note: "idle"},
		})
	})
	t.Run("rfc6298-2.4/floor", func(t *testing.T) {
		// R = 1 ms gives SRTT + 4 RTTVAR = 3 ms; the RTO stays 200 ms.
		clientRig(t).run([]step{
			{at: 1 * ms, write: 1, out: []seg{data(0, S)}},
			{at: 2 * ms, in: in(ack(S))},
			{at: 2 * ms, write: 1, out: []seg{data(S, S)}},
			{at: 2*ms + sum(S) + 200*ms, out: []seg{data(S, S)}},
		})
	})

	// RFC 5681 §3.1: above ssthresh the window grows by one segment for
	// each window's worth of segments acknowledged.
	t.Run("rfc5681-3.1/congestion-avoidance-is-linear", func(t *testing.T) {
		r := clientRig(t).window(4, 4)
		steps := []step{{at: 1 * ms, write: 40, out: []seg{data(0, S), data(S, S), data(2*S, S), data(3*S, S)}}}
		next, cwnd, acked := 4, 4, 0
		for k := 1; k <= 22; k++ {
			out := []seg{data(next*S, S)}
			next++
			if acked++; acked == cwnd {
				cwnd, acked = cwnd+1, 0
				out = append(out, data(next*S, S))
				next++
			}
			steps = append(steps, step{at: 2*ms + sim.Duration(k)*100*us, in: in(ack(k * S)), out: out, check: wantCwnd(cwnd)})
		}
		r.run(steps)
		if cwnd != 8 {
			t.Fatalf("script grew cwnd to %d, want 4 -> 8 over 4+5+6+7 ACKs", cwnd)
		}
	})

	// RFC 5961 §3.2: only a RST at exactly RCV.NXT resets; one elsewhere in
	// the window is challenged; one outside it is dropped.
	rst := func(seq int) seg { return seg{flags: FlagRST, seq: seq} }
	t.Run("rfc5961-3.2/rst-at-rcvnxt-resets", func(t *testing.T) {
		serverRig(t).run([]step{{at: 1 * ms, in: in(rst(0)), check: wantState(StateClosed)}})
	})
	t.Run("rfc5961-3.2/rst-in-window-is-challenged", func(t *testing.T) {
		serverRig(t).run([]step{{at: 1 * ms, in: in(rst(100)), out: []seg{ack(0)}, check: wantState(StateEstablished)}})
	})
	t.Run("rfc5961-3.2/rst-outside-window-is-dropped", func(t *testing.T) {
		serverRig(t).run([]step{
			{at: 1 * ms, in: in(rst(-(scriptPeerISS + 1))), note: "absolute sequence number 0", check: wantState(StateEstablished)},
			{at: 2 * ms, in: in(rst(rcvWindow)), note: "one past the window", check: wantState(StateEstablished)},
		})
	})
	// RFC 793 §3.9, SYN-SENT: a RST is believed only if it acknowledges
	// the SYN.
	t.Run("rfc793-3.9/syn-sent-rst-needs-our-ack", func(t *testing.T) {
		dialRig(t).run([]step{
			{at: 1 * ms, in: in(rst(0)), note: "no ACK", check: wantState(StateSynSent)},
			{at: 2 * ms, in: in(seg{flags: FlagRST | FlagACK, ack: 7}), note: "ACK of something else", check: wantState(StateSynSent)},
			{at: 3 * ms, in: in(seg{flags: FlagRST | FlagACK, ack: 0}), note: "ACK of the SYN", check: wantState(StateClosed)},
		})
	})

	// RFC 793 §3.9: SND.WND is taken only from a segment at least as new
	// as the one that last set it (SND.WL1, SND.WL2).
	t.Run("rfc793-3.9/window-from-older-seq-ignored", func(t *testing.T) {
		clientRig(t).window(4, 64).run([]step{
			{at: 1 * ms, in: in(data(0, 10)), out: []seg{ack(10)}},
			{at: 2 * ms, in: in(data(10, 10)), out: []seg{ack(20)}},
			{at: 3 * ms, in: in(seg{flags: FlagACK, seq: 0, n: 10, win: 600}), note: "a delayed copy of the first, with the window it carried then",
				out: []seg{ack(20)}},
			{at: 4 * ms, write: 2, out: []seg{{flags: FlagACK, seq: 0, ack: 20, n: S}, {flags: FlagACK, seq: S, ack: 20, n: S}}},
		})
	})
	t.Run("rfc793-3.9/window-from-older-ack-ignored", func(t *testing.T) {
		clientRig(t).window(4, 64).run([]step{
			{at: 1 * ms, write: 2, out: []seg{data(0, S), data(S, S)}},
			{at: 2 * ms, in: in(ack(2 * S))},
			{at: 3 * ms, in: in(seg{flags: FlagACK, ack: S, win: 600}), note: "the earlier ACK, overtaken"},
			{at: 4 * ms, write: 2, out: []seg{data(2*S, S), data(3*S, S)}},
		})
	})
	t.Run("rfc793-3.9/window-from-newer-segment-taken", func(t *testing.T) {
		clientRig(t).window(4, 64).run([]step{
			{at: 1 * ms, write: 2, out: []seg{data(0, S), data(S, S)}},
			{at: 2 * ms, in: in(seg{flags: FlagACK, ack: 2 * S, win: 2000})},
			{at: 3 * ms, write: 2, out: []seg{data(2*S, S), data(3*S, 2000-S)}},
		})
	})

	// The handshake table: a SYN costs a half-open entry, the final ACK
	// consumes it whatever it says, and only a correct one to a port still
	// listened on leaves a connection behind.
	listenRig := func(t *testing.T) *scriptRig {
		r := newScriptRig(t, false)
		if err := r.st.TCP().Listen(80, nil, r.adopt); err != nil {
			t.Fatal(err)
		}
		r.run([]step{{in: in(seg{flags: FlagSYN, seq: -1}), out: []seg{{flags: FlagSYN | FlagACK, seq: -1, ack: 0}},
			check: wantTable(0, 1)}})
		return r
	}
	t.Run("handshake/wrong-final-ack-consumes-the-entry", func(t *testing.T) {
		r := listenRig(t)
		r.run([]step{
			{at: 1 * ms, in: in(ack(7)), note: "acknowledges what was never sent: reset with seq = its ack",
				out: []seg{rst(7)}, check: wantTable(0, 0)},
			{at: 2 * ms, in: in(ack(0)), note: "the right ACK, too late", out: []seg{rst(0)}, check: wantTable(0, 0)},
		})
		if st := tcpStatsOf(r.st.TCP()); r.conn != nil || st.Accepted != 0 || st.Resets != 2 {
			t.Errorf("conn %v, accepted %d, resets %d; want none, 0, 2", r.conn, st.Accepted, st.Resets)
		}
	})
	t.Run("handshake/listener-withdrawn-before-final-ack", func(t *testing.T) {
		r := listenRig(t)
		r.st.TCP().Unlisten(80)
		r.run([]step{{at: 1 * ms, in: in(ack(0)), out: []seg{rst(0)}, check: wantTable(0, 0)}})
		if r.conn != nil {
			t.Errorf("accepted %v on a port nobody listens on", r.conn)
		}
	})
	t.Run("handshake/retransmitted-syn-reaches-the-conn", func(t *testing.T) {
		serverRig(t).run([]step{{at: 1 * ms, in: in(seg{flags: FlagSYN, seq: -1}), note: "the connection ignores it; no second handshake starts",
			check: both(wantState(StateEstablished), wantTable(1, 0))}})
	})

	// RFC 2018 §2: SACK is used only if both SYNs carried SACK-permitted.
	// The endpoint offers it on every SYN (the recorder checks), answers a
	// SYN that did not with a SYN|ACK that does not (serverRig), and never
	// sends such a peer a block.
	t.Run("rfc2018/negotiation", func(t *testing.T) {
		holes := []step{
			{at: 1 * ms, in: in(data(S, S)), out: []seg{ack(0)}},
			{at: 1*ms + 100*us, in: in(data(3*S, S)), out: []seg{ack(0)}},
			{at: 1*ms + 200*us, in: in(data(0, S)), out: []seg{ack(2 * S)}},
		}
		serverRig(t).run(holes)
		clientRig(t).run(holes)
	})
	// RFC 2018 §4: the first block is the run holding the segment that
	// triggered the ACK; as many others follow as fit, at most four in all.
	t.Run("rfc2018/block-order", func(t *testing.T) {
		b := func(from, to int) blk { return blk{from * S, to * S} }
		sackServerRig(t).run([]step{
			{at: 1 * ms, in: in(data(S, S)), out: []seg{sack(0, b(1, 2))}},
			{at: 1*ms + 100*us, in: in(data(3*S, S)), out: []seg{sack(0, b(3, 4), b(1, 2))}},
			{at: 1*ms + 200*us, in: in(data(5*S, S)), out: []seg{sack(0, b(5, 6), b(3, 4), b(1, 2))}},
			{at: 1*ms + 300*us, in: in(data(7*S, S)), out: []seg{sack(0, b(7, 8), b(5, 6), b(3, 4), b(1, 2))}},
			{at: 1*ms + 400*us, in: in(data(9*S, S)), note: "a fifth run: the oldest block is left out",
				out: []seg{sack(0, b(9, 10), b(7, 8), b(5, 6), b(3, 4))}},
			{at: 1*ms + 500*us, in: in(data(2*S, S)), note: "joins two runs, which go first",
				out: []seg{sack(0, b(1, 4), b(9, 10), b(7, 8), b(5, 6))}},
			{at: 1*ms + 600*us, in: in(data(0, S)), note: "fills the hole: the rest, newest first",
				out: []seg{sack(4*S, b(9, 10), b(7, 8), b(5, 6))}, check: wantReceived(4 * S)},
		})
	})
	// RFC 2883 §4: a duplicate segment is reported once, in the first
	// block, with the run that holds it (if any) behind it.
	t.Run("rfc2883/dsack-for-duplicate", func(t *testing.T) {
		sackServerRig(t).run([]step{
			{at: 1 * ms, in: in(data(0, S)), out: []seg{ack(S)}},
			{at: 2 * ms, in: in(data(0, S)), note: "below RCV.NXT", out: []seg{sack(S, blk{0, S})}},
			{at: 3 * ms, in: in(data(2*S, S)), note: "the D-SACK is not repeated", out: []seg{sack(S, blk{2 * S, 3 * S})}},
			{at: 4 * ms, in: in(data(2*S, S)), note: "inside a queued run",
				out: []seg{sack(S, blk{2 * S, 3 * S}, blk{2 * S, 3 * S})}},
			{at: 5 * ms, in: in(data(S, 2*S)), note: "half new, half queued: delivered, and the queued half reported",
				out: []seg{sack(3*S, blk{2 * S, 3 * S})}, check: wantReceived(3 * S)},
		})
	})

	// RFC 8985 on the sender. Each row first times one round trip of 4 ms,
	// so min_RTT is 4 ms and the reordering window a quarter of it.
	rackRig := func(t *testing.T) *scriptRig {
		r := sackClientRig(t).window(8, 64)
		r.run([]step{
			{at: 1 * ms, write: 1, out: []seg{data(0, S)}},
			{at: 5 * ms, in: in(ack(S))},
			{at: 6 * ms, write: 4, out: []seg{data(S, S), data(2*S, S), data(3*S, S), data(4*S, S)}},
			{at: 10 * ms, in: in(sack(S, blk{2 * S, 3 * S})), note: "the second overtakes the first"},
			{at: 10*ms + 100*us, in: in(ack(3 * S)), note: "the first fills the hole: reordering is seen"},
			{at: 10*ms + 200*us, in: in(ack(5 * S))},
			{at: 11 * ms, write: 5, out: []seg{data(5*S, S), data(6*S, S), data(7*S, S), data(8*S, S), data(9*S, S)}},
			{at: 15 * ms, in: in(sack(5*S, blk{6 * S, 7 * S})), note: "the first of five is missing"},
			{at: 15*ms + 100*us, in: in(sack(5*S, blk{6 * S, 8 * S}))},
			{at: 15*ms + 200*us, in: in(sack(5*S, blk{6 * S, 9 * S})), note: "a third duplicate ACK: no fast retransmit"},
			{at: 15*ms + 300*us, in: in(sack(5*S, blk{6 * S, 10 * S}))},
		})
		return r
	}
	// The hole's deadline: its send at 11 ms plus RACK.rtt, the newest
	// delivered segment's round trip (15.3 ms less its send, four checksums
	// after 11 ms), plus the 1 ms window.
	holeLost := 16*ms + 300*us - 4*sum(S)
	t.Run("rfc8985/reorder-within-window-no-retransmit", func(t *testing.T) {
		rackRig(t).run([]step{
			{at: 15*ms + 500*us, in: in(ack(10 * S)), note: "the missing segment was only late"},
			{at: 1000 * ms, note: "idle"},
		})
	})
	t.Run("rfc8985/loss-marked-after-reo-wnd", func(t *testing.T) {
		r := rackRig(t)
		r.run([]step{
			{at: holeLost, note: "RACK marks it lost and recovery resends it", out: []seg{data(5*S, S)}},
			{at: 20 * ms, in: in(ack(10 * S))},
			{at: 1000 * ms, note: "idle"},
		})
		wantCauses(t, r, tcpStats{FastRecoveries: 1, RACKMarkedLost: 1})
	})
	t.Run("rfc8985/lost-retransmission-without-rto", func(t *testing.T) {
		r := rackRig(t)
		r.run([]step{
			{at: holeLost, out: []seg{data(5*S, S)}},
			{at: 17 * ms, write: 2, note: "pipe leaves room for one", out: []seg{data(10*S, S)}},
			{at: 21 * ms, in: in(sack(5*S, blk{6 * S, 11 * S})), note: "the segment sent after the retransmission arrives",
				out: []seg{data(11*S, S)}},
			{at: holeLost + 5*ms, note: "so the retransmission is lost too: resent a round trip and a window after it",
				out: []seg{data(5*S, S)}},
			{at: 26 * ms, in: in(ack(12 * S))},
			{at: 1000 * ms, note: "idle"},
		})
		wantCauses(t, r, tcpStats{FastRecoveries: 1, RACKMarkedLost: 2})
	})

	// RFC 8985 §7: a probe timeout of two SRTTs (here 8 ms) sends new data
	// if the window lets it, else the last segment again.
	probeRig := func(t *testing.T) *scriptRig {
		r := sackClientRig(t).window(1, 1)
		r.run([]step{
			{at: 1 * ms, write: 1, out: []seg{data(0, S)}},
			{at: 5 * ms, in: in(ack(S)), check: wantCwnd(2)},
		})
		return r
	}
	pto := 6*ms + 2*sum(S) + 8*ms
	t.Run("rfc8985/tlp-probes-new-data", func(t *testing.T) {
		r := probeRig(t)
		r.run([]step{
			{at: 6 * ms, write: 3, out: []seg{data(S, S), data(2*S, S)}},
			{at: pto, note: "cwnd is full, the peer's window is not", out: []seg{data(3*S, S)}},
			{at: 18 * ms, in: in(ack(4 * S))},
			{at: 1000 * ms, note: "idle"},
		})
		wantCauses(t, r, tcpStats{TLPProbes: 1})
	})
	t.Run("rfc8985/tlp-probes-last-segment", func(t *testing.T) {
		r := probeRig(t)
		r.run([]step{
			{at: 6 * ms, write: 2, out: []seg{data(S, S), data(2*S, S)}},
			{at: pto, out: []seg{data(2*S, S)}},
			{at: 18 * ms, in: in(ack(3 * S))},
			{at: 1000 * ms, note: "idle"},
		})
		wantCauses(t, r, tcpStats{TLPProbes: 1})
	})
	// RFC 8985 §7.2: with one segment in flight the probe waits out a
	// delayed ACK too. A 300 ms path, timed as in rfc6298-2 above, makes the
	// RTO (SRTT + 4 RTTVAR, 900 ms) later than 2 SRTT + 200 ms.
	t.Run("rfc8985/one-segment-flight-pto-includes-200ms", func(t *testing.T) {
		r := dialRig(t)
		r.run([]step{
			{at: 200 * ms, out: []seg{{flags: FlagSYN, seq: -1}}},
			{at: 300 * ms, in: in(seg{flags: FlagSYN | FlagACK, seq: -1, ack: 0, sackOK: true}), out: []seg{ack(0)}},
			{at: 300 * ms, write: 1, out: []seg{data(0, S)}},
			{at: 600 * ms, in: in(ack(S))},
			{at: 600 * ms, write: 1, out: []seg{data(S, S)}},
			{at: 600*ms + sum(S) + 600*ms, note: "two SRTTs: not yet"},
			{at: 600*ms + sum(S) + 800*ms, out: []seg{data(S, S)}},
			{at: 1500 * ms, in: in(ack(2 * S))},
			{at: 5000 * ms, note: "idle"},
		})
		wantCauses(t, r, tcpStats{TLPProbes: 1, RTOs: 1})
	})

	// The send buffer holds at most SendBufSize bytes. A write past it is
	// refused whole, and the ACK that leaves it half full or less tells the
	// writer, once, to refill it. The peer's window is 40 segments and the
	// congestion window wider, so each ACK of 40 lets 40 more out.
	t.Run("sndbuf/bounded-and-refilled-at-half", func(t *testing.T) {
		const w, fits = 40 * S, SendBufSize / S // 179 segments
		segs := func(from, n int) []seg {
			var out []seg
			for k := from; k < from+n; k++ {
				out = append(out, data(k*S, S))
			}
			return out
		}
		ackW := func(n int) *seg { return in(seg{flags: FlagACK, ack: n * S, win: w}) }
		sents := 0
		wantBuffered := func(n, sent int) func(*testing.T, *scriptRig) {
			return func(t *testing.T, r *scriptRig) {
				t.Helper()
				if got := r.conn.Buffered(); got != n*S {
					t.Errorf("%d bytes buffered, want %d", got, n*S)
				}
				if sents != sent {
					t.Errorf("OnSent fired %d times, want %d", sents, sent)
				}
			}
		}
		r := dialRig(t)
		r.run([]step{{in: in(seg{flags: FlagSYN | FlagACK, seq: -1, ack: 0, win: w}), out: []seg{ack(0)}}})
		r.window(64, 64)
		r.conn.OnSent = func(c *Conn) {
			sents++
			for c.Buffered()+S <= SendBufSize {
				if err := c.Send(streamBytes(r.written, S)); err != nil {
					t.Fatal(err)
				}
				r.written += S
			}
		}
		r.run([]step{
			{at: 1 * ms, write: fits, out: segs(0, 40), check: wantBuffered(fits, 0)},
			{at: 2 * ms, full: true, note: "refused whole: nothing queued, nothing sent", check: wantBuffered(fits, 0)},
			{at: 5 * ms, in: ackW(40), note: "139 segments left: above half", out: segs(40, 40), check: wantBuffered(fits-40, 0)},
			{at: 9 * ms, in: ackW(80), note: "99 left: still above half", out: segs(80, 40), check: wantBuffered(fits-80, 0)},
			{at: 13 * ms, in: ackW(120), note: "59 left: OnSent refills to the bound, behind the window's 40",
				out: segs(120, 40), check: wantBuffered(fits, 1)},
			{at: 17 * ms, in: ackW(160), note: "the refill goes out", out: segs(160, 40), check: wantBuffered(fits-40, 1)},
		})
	})

	// RFC 5681 §3.1: a connection starts with a window of three full-sized
	// segments (IW for 1095 < SMSS <= 2190), whichever end opened it, and
	// with ssthresh 16.
	t.Run("rfc5681-3.1/initial-window-is-three-segments", func(t *testing.T) {
		clientRig(t).run([]step{
			{at: 1 * ms, write: 5, out: []seg{data(0, S), data(S, S), data(2*S, S)}, check: wantCwnd(3)},
			{at: 5 * ms, in: in(ack(S)), note: "slow start", out: []seg{data(3*S, S), data(4*S, S)}, check: wantCwnd(4)},
		})
		serverRig(t).run([]step{{at: 1 * ms, write: 4, out: []seg{data(0, S), data(S, S), data(2*S, S)},
			check: func(t *testing.T, r *scriptRig) {
				if got := r.conn.ssthresh; got != 16 {
					t.Errorf("ssthresh %d, want 16", got)
				}
			}}})
	})
	// RFC 5681 §3.1: after a timeout the window is one segment, whatever it
	// started at.
	t.Run("rfc5681-3.1/loss-window-after-rto-is-one", func(t *testing.T) {
		rto := 1*ms + sum(S) + 200*ms
		clientRig(t).run([]step{
			{at: 1 * ms, write: 3, out: []seg{data(0, S), data(S, S), data(2*S, S)}},
			{at: rto, note: "the timeout resends the head alone", out: []seg{data(0, S)}, check: wantCwnd(1)},
			{at: 210 * ms, in: in(ack(S)), note: "slow start from one segment", out: []seg{data(S, S)}, check: wantCwnd(2)},
			{at: 215 * ms, in: in(ack(3 * S))},
			{at: 2000 * ms, note: "nothing left to time out"},
		})
	})

	// RFC 7323: windows are scaled only if both SYNs carried the option,
	// never in a SYN or SYN|ACK, and in every segment after them, each way by
	// the shift its sender offered; a shift above 14 is taken as 14 (§2.3).
	const scaledWnd = rcvWindow >> rcvShift
	offer := func(s seg, shift int) *seg {
		s.wscale, s.shift = true, shift
		return &s
	}
	// scaledClient dials a peer whose SYN|ACK offers shift and the window win.
	scaledClient := func(t *testing.T, shift, win int) *scriptRig {
		r := dialRig(t)
		wantAdvertised(maxUnscaledWindow)(t, r)
		r.run([]step{{in: offer(seg{flags: FlagSYN | FlagACK, seq: -1, ack: 0, win: win}, shift),
			out: []seg{ack(0)}, check: wantAdvertised(scaledWnd)}})
		return r
	}
	// scaledServer accepts a peer whose SYN offers SACK and shift.
	scaledServer := func(t *testing.T, shift int) *scriptRig {
		r := newScriptRig(t, false)
		if err := r.st.TCP().Listen(80, nil, r.adopt); err != nil {
			t.Fatal(err)
		}
		r.run([]step{
			{in: offer(seg{flags: FlagSYN, seq: -1, sackOK: true}, shift),
				out:   []seg{*offer(seg{flags: FlagSYN | FlagACK, seq: -1, ack: 0, sackOK: true}, rcvShift)},
				check: wantAdvertised(maxUnscaledWindow)},
			{in: in(ack(0))},
		})
		return r
	}
	t.Run("rfc7323/no-scaling-unless-both-syns-offer-it", func(t *testing.T) {
		// The SYN|ACK does not offer it: the endpoint advertises the largest
		// unscaled window and takes the peer's as written.
		dialRig(t).run([]step{
			{in: in(seg{flags: FlagSYN | FlagACK, seq: -1, ack: 0, win: 5000}), out: []seg{ack(0)},
				check: wantAdvertised(maxUnscaledWindow)},
			{at: 1 * ms, in: in(seg{flags: FlagACK, ack: 0, win: 1000}), note: "no shift applies"},
			{at: 2 * ms, write: 2, out: []seg{data(0, 1000)}},
		})
		// The SYN does not offer it, so neither does the SYN|ACK (serverRig
		// checks) nor is anything after it scaled.
		serverRig(t).run([]step{{at: 1 * ms, in: in(data(0, 10)), out: []seg{ack(10)}, check: wantAdvertised(maxUnscaledWindow)}})
		// Both offer it.
		scaledServer(t, 0).run([]step{{at: 1 * ms, in: in(data(0, 10)), out: []seg{ack(10)}, check: wantAdvertised(scaledWnd)}})
	})
	t.Run("rfc7323/syn-windows-are-never-scaled", func(t *testing.T) {
		scaledClient(t, 2, 2000).run([]step{
			{at: 1 * ms, write: 2, note: "the SYN|ACK's 2000 bytes, not 8000", out: []seg{data(0, S), data(S, 2000-S)}},
		})
		scaledServer(t, 2) // its SYN|ACK advertises 65535, unscaled
	})
	t.Run("rfc7323/later-windows-are-scaled-both-ways", func(t *testing.T) {
		scaledClient(t, 3, 0).window(64, 64).run([]step{
			{at: 1 * ms, in: in(seg{flags: FlagACK, ack: 0, win: 1000}), note: "1000 << 3 bytes"},
			{at: 2 * ms, write: 6, out: []seg{data(0, S), data(S, S), data(2*S, S), data(3*S, S), data(4*S, S), data(5*S, 8000-5*S)},
				check: wantAdvertised(scaledWnd)},
		})
		scaledServer(t, 2).run([]step{
			{at: 1 * ms, in: in(seg{flags: FlagACK, ack: 0, win: 1000}), note: "1000 << 2 bytes"},
			{at: 2 * ms, write: 3, out: []seg{data(0, S), data(S, S), data(2*S, 4000-2*S)}, check: wantAdvertised(scaledWnd)},
		})
	})
	t.Run("rfc7323/shift-above-14-is-14", func(t *testing.T) {
		var out []seg
		for k := 0; k < 11; k++ {
			out = append(out, data(k*S, S))
		}
		scaledClient(t, 15, 0).window(64, 64).run([]step{
			{at: 1 * ms, in: in(seg{flags: FlagACK, ack: 0, win: 1}), note: "1 << 14 bytes, not 1 << 15"},
			{at: 2 * ms, write: 12, out: append(out, data(11*S, 1<<14-11*S))},
		})
	})
	t.Run("rfc7323/data-past-the-scaled-window-is-not-kept", func(t *testing.T) {
		scaledServer(t, 0).run([]step{
			{at: 1 * ms, in: in(data(70000, 100)), note: "past 65535, inside the scaled window: kept",
				out: []seg{sack(0, blk{70000, 70100})}},
			{at: 2 * ms, in: in(data(rcvWindow-50, 100)), note: "reaches past the scaled window: not kept",
				out: []seg{sack(0, blk{70000, 70100})}},
		})
		sackServerRig(t).run([]step{
			{at: 1 * ms, in: in(data(70000, 100)), note: "past the unscaled window: not kept", out: []seg{ack(0)}},
		})
	})
}

// wantCauses checks the module's retransmission-cause counters.
func wantCauses(t *testing.T, r *scriptRig, want tcpStats) {
	t.Helper()
	st := tcpStatsOf(r.st.TCP())
	got := tcpStats{FastRecoveries: st.FastRecoveries, RACKMarkedLost: st.RACKMarkedLost,
		TLPProbes: st.TLPProbes, RTOs: st.RTOs, DSACKsReceived: st.DSACKsReceived}
	if got != want {
		t.Errorf("retransmission causes %+v, want %+v", got, want)
	}
}

// wantTable checks what the demultiplexing table holds.
func wantTable(conns, halfOpen int) func(*testing.T, *scriptRig) {
	return func(t *testing.T, r *scriptRig) {
		t.Helper()
		if st := tcpStatsOf(r.st.TCP()); st.Conns != conns || st.HalfOpen != halfOpen {
			t.Errorf("table holds %d connections and %d half-open entries, want %d and %d", st.Conns, st.HalfOpen, conns, halfOpen)
		}
	}
}
