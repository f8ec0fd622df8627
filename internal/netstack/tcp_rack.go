package netstack

import "spin/internal/sim"

// Loss detection and retransmission on the send side. There is one way a
// segment is resent: it is marked lost, and pump resends what is marked, the
// segment at SND.UNA whatever the window and the rest as the pipe leaves
// room (RFC 6675). What differs between peers is only how a loss is found.
//
//   - A peer that permits SACK tells the sender what it holds, and RACK
//     (RFC 8985) reads that in time: a segment is lost once a segment sent
//     after it has been delivered and a reordering window has passed since
//     its own ACK was due. A tail loss, after which nothing is delivered,
//     draws a probe (TLP) two round trips on, whose ACK or SACK lets RACK
//     see it.
//   - A peer without SACK sends only duplicate ACKs. The third marks the
//     head lost (RFC 5681 §3.2) and each partial ACK the hole it uncovers
//     (RFC 6582); the duplicates inflate cwnd where a scoreboard would have
//     shrunk the pipe.
//
// The retransmission timeout marks everything outstanding lost (only the
// head without SACK, the rest being uncovered by partial ACKs) and restarts
// slow start.

// rackState is RACK-TLP's per-connection state (RFC 8985 §6.1, §7.1).
type rackState struct {
	// at, end and rtt describe the most recently sent segment known
	// delivered: when it was sent, where it ends, and its round trip
	// (RACK.xmit_ts, RACK.end_seq, RACK.rtt).
	at  sim.Time
	rtt sim.Duration
	end uint32
	// fack is the highest sequence number delivered (RACK.fack). A
	// segment below it delivered first time round was reordered.
	fack uint32
	// minRTT is the least round trip seen since the connection first needed
	// this state, seeded from SRTT then.
	minRTT sim.Duration
	// dsackRound is SND.NXT when a D-SACK last widened the reordering
	// window, which widens once per round trip (RACK.dsack_round).
	dsackRound uint32
	// tlpEnd is SND.NXT when the outstanding probe went out (TLP.end_seq).
	tlpEnd uint32
	// reord is set once reordering has been seen; until then the window
	// closes as soon as recovery is under way or three segments were
	// SACKed past a hole.
	reord bool
	// reoMult scales the window, min_RTT/4, per D-SACK round; reoPersist
	// counts the recoveries left before it falls back to one.
	reoMult, reoPersist uint8
	inDSACKRound        bool
	// tlpOut is set while a probe is outstanding; tlpRetrans if it resent
	// the last segment rather than sending new data.
	tlpOut, tlpRetrans bool

	// The last recovery can be undone while canUndo holds: undoCwnd,
	// undoSsthresh and undoRecover are what it changed, and undoRetrans
	// counts its retransmissions no D-SACK has yet reported duplicated.
	// When every one has been, nothing was lost (RFC 3708) and the window
	// comes back.
	undoCwnd, undoSsthresh uint16
	undoRetrans            uint16
	undoRecover            uint32
	canUndo                bool
}

// sentAfter orders transmissions by time, then by sequence (RFC 8985 §6.2).
func sentAfter(t1 sim.Time, end1 uint32, t2 sim.Time, end2 uint32) bool {
	return t1 > t2 || t1 == t2 && int32(end1-end2) > 0
}

// delivered takes a segment the peer acknowledged or SACKed off the
// scoreboard's totals and, the first time it is reported, updates RACK
// (RFC 8985 §6.2 steps 1–2). A retransmission answered faster than any
// round trip seen is taken for the original's ACK.
func (c *Conn) delivered(s segment, now sim.Time) {
	x := c.loss
	if s.bits&segLost != 0 {
		x.lost -= s.len()
	}
	if s.bits&segSacked != 0 {
		x.sacked -= s.len()
		x.sackedSegs--
		return
	}
	r := &x.rack
	if rtt := now.Sub(s.at); (s.bits&segRexmit == 0 || rtt >= r.minRTT) && sentAfter(s.at, s.end(), r.at, r.end) {
		r.at, r.end, r.rtt = s.at, s.end(), rtt
	}
	if int32(s.end()-r.fack) > 0 {
		r.fack = s.end()
	} else if s.bits&segRexmit == 0 && int32(s.end()-r.fack) < 0 {
		r.reord = true
	}
}

// takeSACK marks the segments pkt's SACK blocks cover (RFC 2018), in
// sequence order, and takes a first block below the cumulative ACK or
// inside the second as a D-SACK (RFC 2883). Blocks from a peer that did not
// permit SACK mean nothing.
func (c *Conn) takeSACK(pkt *Packet) {
	blocks := pkt.SACKBlocks()
	if !c.sackOK() || len(blocks) == 0 {
		return
	}
	x := c.lossState()
	if b := blocks[0]; int32(b.End-pkt.Ack) <= 0 ||
		len(blocks) > 1 && int32(b.Start-blocks[1].Start) >= 0 && int32(b.End-blocks[1].End) <= 0 {
		c.onDSACK(b)
		blocks = blocks[1:]
	}
	now := c.tcp.stack.clock.Now()
	for i := range c.inflight {
		s := &c.inflight[i]
		if s.bits&segSacked != 0 {
			continue
		}
		for _, b := range blocks {
			if int32(s.seq-b.Start) >= 0 && int32(s.end()-b.End) <= 0 {
				c.delivered(*s, now)
				s.bits = s.bits&^segLost | segSacked
				x.sacked += s.len()
				x.sackedSegs++
				break
			}
		}
	}
}

// onDSACK takes a report that the peer got a segment twice. One that a
// probe duplicated says only that the probe was not needed. Any other
// means a segment was resent that had only been reordered: reordering is
// seen, and the window widens by min_RTT/4, once a round trip (RFC 8985
// §6.2 step 4).
func (c *Conn) onDSACK(b SACKBlock) {
	c.tcp.dsacksReceived.Add(1)
	r := &c.loss.rack
	if r.tlpOut && r.tlpRetrans && b.End == r.tlpEnd {
		r.tlpRetrans = false
		return
	}
	r.reord = true
	if r.canUndo && r.undoRetrans > 0 {
		if r.undoRetrans--; r.undoRetrans == 0 {
			r.canUndo = false
			c.cwnd, c.ssthresh = max(c.cwnd, r.undoCwnd), max(c.ssthresh, r.undoSsthresh)
			c.recover = r.undoRecover
		}
	}
	if r.inDSACKRound && int32(c.sndUna-r.dsackRound) >= 0 {
		r.inDSACKRound = false
	}
	if !r.inDSACKRound {
		r.inDSACKRound, r.dsackRound = true, c.sndNxt
		r.reoMult = min(r.reoMult+1, 255)
		r.reoPersist = 16
	}
}

// reoWnd is how long past its round trip a segment may still arrive before
// RACK calls it lost (RFC 8985 §6.2 step 4).
func (c *Conn) reoWnd() sim.Duration {
	x := c.loss
	if !x.rack.reord && (c.phase != phaseOpen || x.sackedSegs >= dupAckThreshold) {
		return 0
	}
	srtt := sim.Duration(c.srtt) * sim.Microsecond
	return min(x.rack.minRTT/4*sim.Duration(x.rack.reoMult), srtt)
}

// rackDetect marks lost every segment sent before the newest delivered one
// whose ACK is overdue by the reordering window (RFC 8985 §6.2 step 5). A
// loss starts recovery; a segment not yet overdue sets the reordering timer
// for when the last such one will be.
func (c *Conn) rackDetect() {
	x := c.loss
	if !c.sackOK() || x == nil || x.sackedSegs == 0 && c.phase == phaseOpen {
		return
	}
	now, wnd := c.tcp.stack.clock.Now(), c.reoWnd()
	var due sim.Time
	marked := false
	for i := range c.inflight {
		s := &c.inflight[i]
		if s.bits&(segSacked|segLost) != 0 || !sentAfter(x.rack.at, x.rack.end, s.at, s.end()) {
			continue
		}
		if at := s.at.Add(x.rack.rtt + wnd); at > now {
			due = max(due, at)
			continue
		}
		c.markLost(i)
		c.tcp.rackMarkedLost.Add(1)
		marked = true
	}
	if marked {
		c.startRecovery()
	}
	if due != 0 {
		c.armAt(timerREO, due)
	}
}

// startRecovery halves the window for a loss, once per window of data: a
// loss at or below recover was sent before the last halving. Without SACK
// the window starts inflated by the three segments the duplicate ACKs say
// have left.
func (c *Conn) startRecovery() {
	if c.phase != phaseOpen || int32(c.sndUna-c.recover) <= 0 {
		return
	}
	c.tcp.fastRecoveries.Add(1)
	r := &c.lossState().rack
	r.undoCwnd, r.undoSsthresh, r.undoRecover = c.cwnd, c.ssthresh, c.recover
	r.undoRetrans, r.canUndo = 0, true
	c.ssthresh = uint16(max(len(c.inflight)/2, 2))
	c.cwnd = c.ssthresh
	if !c.sackOK() {
		c.cwnd += dupAckThreshold
	}
	c.phase, c.recover = phaseRecovery, c.sndNxt
}

// endRecovery reopens on an ACK of recover. After sixteen recoveries that
// saw no D-SACK the reordering window is back to min_RTT/4.
func (c *Conn) endRecovery() {
	if x := c.loss; x != nil && c.phase != phaseOpen && x.rack.reoPersist > 0 {
		if x.rack.reoPersist--; x.rack.reoPersist == 0 {
			x.rack.reoMult = 1
		}
	}
	c.phase = phaseOpen
}

// markLost marks inflight[i] lost.
func (c *Conn) markLost(i int) {
	x := c.lossState()
	if s := &c.inflight[i]; s.bits&segLost == 0 {
		if s.bits&segSacked != 0 {
			s.bits &^= segSacked
			x.sacked -= s.len()
			x.sackedSegs--
		}
		s.bits |= segLost
		x.lost += s.len()
	}
}

// markLostOnTimeout marks what the retransmission timeout presumes lost:
// everything the peer has not SACKed, or only the head from a peer that
// cannot SACK, whose partial ACKs will uncover the rest one by one.
func (c *Conn) markLostOnTimeout() {
	r := &c.lossState().rack
	r.tlpOut, r.canUndo = false, false
	if !c.sackOK() {
		c.markLost(0)
		return
	}
	for i, s := range c.inflight {
		if s.bits&segSacked == 0 {
			c.markLost(i)
		}
	}
}

// resendLost resends the segments marked lost, oldest first: the one at
// SND.UNA whatever the window, since nothing is delivered past it until it
// arrives (RFC 5681 §3.2, RFC 6298 §5.4), and the rest while the pipe has
// room for them (RFC 6675 §5).
func (c *Conn) resendLost() {
	for i := 0; c.loss != nil && c.loss.lost > 0 && i < len(c.inflight); i++ {
		if c.inflight[i].bits&segLost == 0 {
			continue
		}
		if i > 0 && c.pipe() >= int(c.cwnd)*DefaultMSS {
			return
		}
		c.loss.rack.undoRetrans++
		c.resend(i)
	}
}

// resend retransmits inflight[i] from the send buffer, which starts with
// inflight[0]'s first byte.
func (c *Conn) resend(i int) {
	s := &c.inflight[i]
	if s.bits&segLost != 0 {
		c.loss.lost -= s.len()
	}
	s.bits = s.bits&^segLost | segRexmit
	s.at = c.tcp.stack.clock.Now()
	flags := FlagACK
	if s.bits&segFIN != 0 {
		flags |= FlagFIN
	}
	off := s.seq - c.inflight[0].seq
	c.retransmits.Add(1)
	c.sendSeg(c.seg(flags, s.seq, c.rcvNxt, c.live()[off:off+uint32(s.n)]))
}

// probeAllowed reports whether the timer should be the probe timeout (RFC
// 8985 §7.2): the peer SACKs, a round trip has been timed, nothing is being
// recovered, SACKed or probed already.
func (c *Conn) probeAllowed() bool {
	x := c.loss
	return c.sackOK() && c.srtt != 0 && c.phase == phaseOpen && len(c.inflight) > 0 &&
		(x == nil || !x.rack.tlpOut && x.sackedSegs == 0)
}

// probe sends the tail-loss probe (RFC 8985 §7.3): a new segment if the
// peer's window has room, else the last segment again. Its ACK, or the
// SACK block it draws, lets RACK find a lost tail a round trip later
// instead of a retransmission timeout later.
func (c *Conn) probe() {
	r := &c.lossState().rack
	r.tlpOut = true
	c.tcp.tlpProbes.Add(1)
	if n := min(DefaultMSS, len(c.unsent()), c.peerRoom()); n > 0 && c.sending() {
		r.tlpRetrans = false
		c.sendData(n)
	} else {
		r.tlpRetrans = true
		c.resend(len(c.inflight) - 1)
	}
	r.tlpEnd = c.sndNxt
	c.restartRetx()
}

// endProbe closes a probe episode on the first ACK to reach what it covered
// (RFC 8985 §7.4). A resent segment acknowledged without a D-SACK for it
// was lost, and the probe repaired it: the window halves as a recovery's
// would have.
func (c *Conn) endProbe(ack uint32) {
	x := c.loss
	if x == nil || !x.rack.tlpOut || int32(ack-x.rack.tlpEnd) < 0 {
		return
	}
	x.rack.tlpOut = false
	if x.rack.tlpRetrans {
		c.ssthresh = max(c.cwnd/2, 2)
		c.cwnd, c.caAcked = c.ssthresh, 0
	}
}
